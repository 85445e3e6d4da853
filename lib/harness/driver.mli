(** Multi-domain run loop: spawn workers, release them on a barrier, run a
    fixed operation count each, merge statistics. *)

open Repro_core
open Repro_baseline

module Barrier : sig
  type t

  val create : int -> t
  val wait : t -> unit
end

type result = {
  elapsed_s : float;
  total_ops : int;
  throughput : float;  (** ops/second over all domains *)
  stats : Repro_storage.Stats.t;  (** merged worker stats *)
  per_domain : Repro_storage.Stats.t array;
  latency : Repro_util.Histogram.t option;
      (** per-op latency in seconds, merged (only with [measure_latency]) *)
}

val percentiles_line : Repro_util.Histogram.t -> string
(** "p50=..us p95=..us p99=..us max=..us" *)

val run_parallel : domains:int -> f:(int -> Handle.ctx -> unit) -> result
(** Run [f domain_index ctx] on each domain; [f] loops over its own work. *)

val preload : Tree_intf.handle -> seed:int -> Workload.spec -> int
(** Insert the spec's deterministic preload set (single domain); returns
    the count. *)

val run_ops :
  ?measure_latency:bool ->
  Tree_intf.handle ->
  domains:int ->
  ops_per_domain:int ->
  seed:int ->
  Workload.spec ->
  result

val run_ops_with_aux :
  Tree_intf.handle ->
  domains:int ->
  aux:(stop:bool Atomic.t -> Handle.ctx -> unit) array ->
  ops_per_domain:int ->
  seed:int ->
  Workload.spec ->
  result * Repro_storage.Stats.t
(** {!run_ops} with one extra domain per element of [aux] — heterogeneous
    background workers (a compactor loop next to MVCC scanners, say),
    each polling the shared stop flag, with epoch slots [domains .. domains +
    Array.length aux - 1]. Their merged stats are returned separately. *)

val run_ops_with_workers :
  Tree_intf.handle ->
  domains:int ->
  workers:int ->
  worker:(stop:bool Atomic.t -> Handle.ctx -> unit) ->
  ops_per_domain:int ->
  seed:int ->
  Workload.spec ->
  result * Repro_storage.Stats.t
(** {!run_ops} with [workers] extra domains each running [worker] until
    the workload finishes and [stop] is raised. Worker contexts get epoch
    slots [domains .. domains + workers - 1]; returns their merged stats
    separately. The backend-agnostic engine under
    {!run_ops_with_compaction} — use it directly when the compaction
    loop runs over a non-default store backend. *)

val run_ops_with_compaction :
  (int, int Repro_storage.Store.t) Handle.t ->
  Tree_intf.handle ->
  domains:int ->
  compactors:int ->
  ops_per_domain:int ->
  seed:int ->
  Workload.spec ->
  result * Repro_storage.Stats.t
(** {!run_ops} with background {!Repro_core.Compactor} workers on the raw
    tree for the duration; returns the compactors' merged stats too. *)
