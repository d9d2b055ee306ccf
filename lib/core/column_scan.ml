let kernel pred (ch : Column_store.chunk) ~off ~verdicts ~laxities ~successes =
  Predicate.classify_column pred ~lo:ch.lo ~hi:ch.hi ~len:ch.len ~off ~verdicts
    ~laxities ~successes
