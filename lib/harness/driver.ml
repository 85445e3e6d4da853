(** Multi-domain run loop: spawns worker domains, synchronises their start
    on a barrier, runs a fixed number of operations per worker, and merges
    per-domain statistics. *)

open Repro_core
open Repro_baseline

(* Spin barrier: all parties decrement then wait for zero. *)
module Barrier = struct
  type t = { remaining : int Atomic.t }

  let create n = { remaining = Atomic.make n }

  let wait t =
    Atomic.decr t.remaining;
    while Atomic.get t.remaining > 0 do
      Domain.cpu_relax ()
    done
end

type result = {
  elapsed_s : float;
  total_ops : int;
  throughput : float;  (** operations per second, all domains *)
  stats : Repro_storage.Stats.t;  (** merged over worker domains *)
  per_domain : Repro_storage.Stats.t array;
  latency : Repro_util.Histogram.t option;
      (** per-operation latency (seconds), merged, when requested *)
}

let percentiles_line h =
  Printf.sprintf "p50=%.1fus p95=%.1fus p99=%.1fus max=%.1fus"
    (1e6 *. Repro_util.Histogram.percentile h 50.0)
    (1e6 *. Repro_util.Histogram.percentile h 95.0)
    (1e6 *. Repro_util.Histogram.percentile h 99.0)
    (1e6 *. Repro_util.Histogram.max_value h)

(** Run [f domain_index ctx] on [domains] domains in parallel. [f] must
    loop over its own operations; the elapsed time covers the span between
    the barrier release and the last domain finishing. *)
let run_parallel ~domains ~(f : int -> Handle.ctx -> unit) : result =
  let barrier = Barrier.create (domains + 1) in
  let ctxs = Array.init domains (fun i -> Handle.ctx ~slot:i) in
  let spawn i =
    Domain.spawn (fun () ->
        Barrier.wait barrier;
        f i ctxs.(i))
  in
  let workers = Array.init domains spawn in
  let t0 = ref 0.0 in
  Barrier.wait barrier;
  t0 := Unix.gettimeofday ();
  Array.iter Domain.join workers;
  let elapsed = Unix.gettimeofday () -. !t0 in
  let merged = Repro_storage.Stats.create () in
  Array.iter (fun c -> Repro_storage.Stats.merge ~into:merged c.Handle.stats) ctxs;
  {
    elapsed_s = elapsed;
    total_ops = merged.Repro_storage.Stats.ops;
    throughput = float_of_int merged.Repro_storage.Stats.ops /. elapsed;
    stats = merged;
    per_domain = Array.map (fun c -> c.Handle.stats) ctxs;
    latency = None;
  }

(** Preload [tree] with the spec's deterministic key set (single domain,
    not measured). A fresh tree takes the packing bulk-load fast path
    when the backend offers one ([Tree_intf.handle.bulk_add]: sort the
    keys, build packed levels, install — no per-key lock traffic); any
    other case falls back to one insert per key, which is idempotent
    over whatever the bulk path loaded. Packs at [fill = 0.5] — nodes at
    exactly the half-full threshold, the state an incremental build's
    splits leave behind — so the measured run starts from the same
    structural regime as the insert path it replaces: deletes dip nodes
    under half-full (feeding the compaction queue) and inserts still
    split, instead of a dense 0.9-packed tree absorbing both. *)
let preload (tree : Tree_intf.handle) ~seed spec =
  let keys = Workload.preload_keys ~seed spec in
  let bulk_loaded =
    match tree.Tree_intf.bulk_add with
    | Some bulk ->
        let sorted = Array.copy keys in
        Array.sort compare sorted;
        bulk ~fill:0.5 (Array.to_list (Array.map (fun k -> (k, k * 2)) sorted))
    | None -> false
  in
  if not bulk_loaded then begin
    let ctx = Handle.ctx ~slot:0 in
    Array.iter (fun k -> ignore (tree.Tree_intf.insert ctx k (k * 2))) keys
  end;
  Array.length keys

(** Run [ops_per_domain] sampled operations per domain against [tree].
    With [measure_latency] each operation is individually timed into a
    per-domain histogram; the merged histogram lands in [result.latency]
    (costs one clock read per op). *)
let run_ops ?(measure_latency = false) (tree : Tree_intf.handle) ~domains ~ops_per_domain
    ~seed spec : result =
  let hists =
    Array.init domains (fun _ -> Repro_util.Histogram.create ())
  in
  let result =
    run_parallel ~domains ~f:(fun i ctx ->
        let s = Workload.sampler ~seed ~worker:i spec in
        let h = hists.(i) in
        let run_op () =
          match Workload.next_op s with
          | Workload.Search k -> ignore (tree.Tree_intf.search ctx k)
          | Workload.Insert (k, v) -> ignore (tree.Tree_intf.insert ctx k v)
          | Workload.Delete k -> ignore (tree.Tree_intf.delete ctx k)
        in
        if measure_latency then
          for _ = 1 to ops_per_domain do
            let t0 = Unix.gettimeofday () in
            run_op ();
            Repro_util.Histogram.add h (Unix.gettimeofday () -. t0)
          done
        else
          for _ = 1 to ops_per_domain do
            run_op ()
          done)
  in
  if measure_latency then begin
    let merged = Repro_util.Histogram.create () in
    Array.iter (fun h -> Repro_util.Histogram.merge ~into:merged h) hists;
    { result with latency = Some merged }
  end
  else result

(** Like {!run_ops} but with one extra domain per element of [aux], each
    running its function (a {!Repro_core.Compactor} loop, an MVCC
    scanner, ...) for the duration of the workload. Each function receives the shared stop flag it must poll and
    a fresh context with a slot disjoint from the measured domains. Aux
    stats are merged and returned separately. *)
let run_ops_with_aux (tree : Tree_intf.handle) ~domains
    ~(aux : (stop:bool Atomic.t -> Handle.ctx -> unit) array) ~ops_per_domain
    ~seed spec : result * Repro_storage.Stats.t =
  let stop = Atomic.make false in
  let workers = Array.length aux in
  let aux_ctxs = Array.init workers (fun i -> Handle.ctx ~slot:(domains + i)) in
  let aux_domains =
    Array.init workers (fun i ->
        Domain.spawn (fun () -> aux.(i) ~stop aux_ctxs.(i)))
  in
  let result = run_ops tree ~domains ~ops_per_domain ~seed spec in
  Atomic.set stop true;
  Array.iter Domain.join aux_domains;
  let aux_stats = Repro_storage.Stats.create () in
  Array.iter
    (fun c -> Repro_storage.Stats.merge ~into:aux_stats c.Handle.stats)
    aux_ctxs;
  (result, aux_stats)

(** Like {!run_ops} but with [workers] extra domains all running [worker]. *)
let run_ops_with_workers (tree : Tree_intf.handle) ~domains ~workers
    ~(worker : stop:bool Atomic.t -> Handle.ctx -> unit) ~ops_per_domain ~seed
    spec : result * Repro_storage.Stats.t =
  run_ops_with_aux tree ~domains ~aux:(Array.make workers worker) ~ops_per_domain
    ~seed spec

(** Like {!run_ops} but with [compactors] extra domains running
    {!Repro_core.Compactor} workers on [raw] for the duration of the
    workload (experiments E4/E5). Compactor stats are returned separately. *)
let run_ops_with_compaction (raw : (int, int Repro_storage.Store.t) Handle.t)
    (tree : Tree_intf.handle) ~domains ~compactors ~ops_per_domain ~seed spec :
    result * Repro_storage.Stats.t =
  let module C = Compactor.Make (Repro_storage.Key.Int) in
  run_ops_with_workers tree ~domains ~workers:compactors
    ~worker:(fun ~stop ctx -> C.run_worker raw ctx ~stop)
    ~ops_per_domain ~seed spec
