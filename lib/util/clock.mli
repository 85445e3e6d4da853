val now : unit -> float
(** Seconds on the monotonic clock: nanosecond resolution and no steps,
    so a timeout or a sub-microsecond interval is not stretched by a
    change of the wall clock. Only differences are meaningful. *)
