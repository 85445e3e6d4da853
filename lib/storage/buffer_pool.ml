(** The data-page IO record {!Paged_store.pool_stats} returns: [misses]
    counts data-page reads, [writebacks] data-page writes; [hits] and
    [evictions] are always 0, as there is no raw-frame pool. *)

type stats = { hits : int; misses : int; evictions : int; writebacks : int }
