(** Scan-consistency oracle.

    Model: each writer domain owns a {e disjoint} block of keys and
    mutates only those, appending every operation to its own {!log}
    with a monotonic-clock interval ([start] before the tree call, [stop]
    after). A scan observed concurrently is a {e consistent cut} iff
    there exists one instant [t] such that, for every key, the
    observed value is exactly the visible effect of its owner's last
    operation before [t].

    {!check} decides this from intervals alone: for each key it
    computes the set of instants at which the observation could have
    been current (after the matching op started, before the next op on
    that key finished — conservative, so a genuinely consistent cut is
    never rejected), intersects per writer (catching scans that mix
    two states of one writer, e.g. a torn prefix/suffix of its update
    sweep), then across writers (catching per-writer-consistent scans
    that pair states far apart in time). Ops on one key should use
    distinct values for the oracle to have discriminating power;
    repeated values only widen the feasible set (never a false
    alarm). *)

type op = {
  o_key : int;
  o_value : int option;  (** [None] = delete *)
  o_start : float;
  o_end : float;
}

type log
(** One writer's chronological operation record. Single-writer: the
    owning domain appends, the checking domain reads only after the
    writers joined. *)

val log_create : unit -> log

val record : log -> key:int -> value:int option -> start:float -> stop:float -> unit
(** Append one op: [value = Some v] for an insert/upsert of [v],
    [None] for a delete. *)

val logged : log -> key:int -> value:int option -> (unit -> 'a) -> 'a
(** Run [f] (the tree operation) and record it with the measured
    monotonic-clock interval. *)

val check :
  logs:log array ->
  owner:(int -> int) ->
  initial:(int -> int option) ->
  universe:int list ->
  scan:(int * int) list ->
  string list
(** [check ~logs ~owner ~initial ~universe ~scan] returns the
    violations ([[]] = the scan is a feasible consistent cut).
    [logs.(w)] is writer [w]'s record; [owner k] the writer owning key
    [k]; [initial k] the value bound before any logged op; [universe]
    every key the scan covered (absent keys are part of the cut too);
    [scan] the observed pairs, which must be strictly ascending. Call
    only after the writer domains have joined. *)
