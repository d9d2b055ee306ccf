(** Positional-padded q-gram profiles with a sound edit-distance lower
    bound.

    A string's profile is the multiset of its q-grams after padding both
    ends with [q-1] sentinel characters.  One edit operation touches at
    most [q] grams on each side, so the L1 distance between two profiles
    lower-bounds [2q] times the edit distance (count filtering, Ukkonen
    1992).  Profiles are the imprecise representation: a fraction of the
    document's size, enough to classify many strings as certain
    non-matches without ever running the expensive distance. *)

type t

val profile : q:int -> string -> t
(** @raise Invalid_argument if [q < 1]. *)

val min_edit_distance : t -> t -> int
(** Sound lower bound on the edit distance between the source strings:
    [max(ceil(l1 / 2q), |len difference|)]. *)

val max_edit_distance : t -> t -> int
(** Sound upper bound: the longer length (replace everything, then
    insert/delete the difference). *)
