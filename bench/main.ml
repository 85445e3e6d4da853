(* Benchmark harness: regenerates every experiment in DESIGN.md §6.

   The paper (PODS'85/JCSS'86) is a theory paper with no measured tables;
   each experiment here operationalises one of its quantitative claims.
   Usage:
     dune exec bench/main.exe            # all experiments, default sizes
     dune exec bench/main.exe -- E1 E3   # a subset
     dune exec bench/main.exe -- --quick # smaller sizes (CI)
*)

open Repro_storage
open Repro_core
open Repro_baseline
open Repro_harness
module S = Sagiv.Make (Key.Int)
module C = Compress.Make (Key.Int)
module Co = Compactor.Make (Key.Int)
module V = Validate.Make (Key.Int)

let quick = ref false
let scale n = if !quick then max 1 (n / 10) else n

let ctx = Handle.ctx
let cores = Domain.recommended_domain_count ()

(* What a row with more domains than cores can show on this machine. *)
let scaling_note =
  match cores with
  | 1 -> "one core: scaling rows show overhead, not speedup"
  | 2 -> "two cores: rows past 2 domains timeshare, so no row shows more than 2x"
  | n -> Printf.sprintf "%d cores: rows past %d domains timeshare" n n

(* Minimal JSON emitter: enough for flat result records, no dependency.
   Experiments push named values into [json_out]; [--json PATH] writes
   them all as one document (BENCH_*.json in the repo root is the
   committed snapshot EXPERIMENTS.md quotes). *)
module J = struct
  type t =
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let rec to_buf b = function
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
        Buffer.add_string b
          (if Float.is_finite f then Printf.sprintf "%.6g" f else "null")
    | Str s ->
        Buffer.add_char b '"';
        String.iter
          (fun c ->
            match c with
            | '"' -> Buffer.add_string b "\\\""
            | '\\' -> Buffer.add_string b "\\\\"
            | '\n' -> Buffer.add_string b "\\n"
            | c when Char.code c < 32 ->
                Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
            | c -> Buffer.add_char b c)
          s;
        Buffer.add_char b '"'
    | List l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            to_buf b x)
          l;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            to_buf b (Str k);
            Buffer.add_char b ':';
            to_buf b v)
          kvs;
        Buffer.add_char b '}'

  let to_string t =
    let b = Buffer.create 1024 in
    to_buf b t;
    Buffer.contents b
end

let json_out : (string * J.t) list ref = ref []
let record_json name v = json_out := (name, v) :: !json_out

(* Insert [n] distinct scattered keys with a single domain. *)
let preload_handle (h : Tree_intf.handle) ~n ~space =
  let c = ctx ~slot:0 in
  let rng = Repro_util.Splitmix.create 0xFEED in
  let perm = Repro_util.Splitmix.permutation rng space in
  for i = 0 to n - 1 do
    ignore (h.Tree_intf.insert c perm.(i) perm.(i))
  done

let stats_per_op (st : Stats.t) field =
  if st.Stats.ops = 0 then 0.0 else float_of_int field /. float_of_int st.Stats.ops

(* ------------------------------------------------------------------ *)
(* E1: lock footprint per operation (the paper's headline claim)       *)
(* ------------------------------------------------------------------ *)

let e1 () =
  Report.heading "E1: lock footprint per operation";
  Report.note
    "Claim (abstract, §1): a Sagiv insertion locks ONE node at a time; \
     Lehman-Yao holds 2-3 simultaneously; lock-coupling readers lock every \
     node on the path.";
  let n = scale 50_000 and ops = scale 20_000 in
  let rows =
    List.map
      (fun (impl : Tree_intf.impl) ->
        let h = impl.Tree_intf.make ~order:4 in
        preload_handle h ~n ~space:(2 * n);
        (* concurrent inserts of fresh disjoint keys: contention on the
           upper levels is what makes Lehman-Yao's third lock (coupling
           during the parent-level right-move) appear *)
        let ins =
          Driver.run_parallel ~domains:4 ~f:(fun i c ->
              for j = 0 to (ops / 4) - 1 do
                ignore (h.Tree_intf.insert c ((2 * n) + (j * 4) + i) j)
              done)
        in
        let srch =
          Driver.run_parallel ~domains:4 ~f:(fun i c ->
              let rng = Repro_util.Splitmix.create (7 + i) in
              for _ = 1 to ops / 4 do
                ignore (h.Tree_intf.search c (Repro_util.Splitmix.int rng (2 * n)))
              done)
        in
        let sti = ins.Driver.stats and sts = srch.Driver.stats in
        [
          impl.Tree_intf.impl_name;
          Report.fmt_f (stats_per_op sti sti.Stats.lock_acquisitions);
          string_of_int sti.Stats.max_locks_held;
          Report.fmt_f (stats_per_op sts sts.Stats.lock_acquisitions);
          string_of_int sts.Stats.max_locks_held;
        ])
      Tree_intf.all
  in
  Report.table
    ~header:
      [ "tree"; "locks/insert"; "max-held(ins)"; "locks/search"; "max-held(srch)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E2: throughput vs worker domains                                    *)
(* ------------------------------------------------------------------ *)

let e2 () =
  Report.heading "E2: throughput scaling with worker domains";
  Report.note
    ("Claim (§1): fewer/shorter locks allow a higher degree of concurrency. "
    ^ String.capitalize_ascii scaling_note ^ ".");
  let total_ops = scale 160_000 in
  let space = scale 200_000 in
  let preload = space / 2 in
  let domain_counts = [ 1; 2; 4; 8 ] in
  List.iter
    (fun (mix, mix_name) ->
      Report.note (Printf.sprintf "mix %s, keyspace %d, preload %d:" mix_name space preload);
      let rows =
        List.map
          (fun (impl : Tree_intf.impl) ->
            impl.Tree_intf.impl_name
            :: List.map
                 (fun d ->
                   let h = impl.Tree_intf.make ~order:16 in
                   let spec = Workload.spec ~op_mix:mix ~key_space:space ~preload () in
                   ignore (Driver.preload h ~seed:42 spec);
                   let r =
                     Driver.run_ops h ~domains:d ~ops_per_domain:(total_ops / d)
                       ~seed:42 spec
                   in
                   Report.fmt_si r.Driver.throughput ^ "/s")
                 domain_counts)
          Tree_intf.all
      in
      Report.table
        ~header:("tree" :: List.map (fun d -> Printf.sprintf "%dd" d) domain_counts)
        rows)
    [
      (Workload.insert_only, "100% insert");
      (Workload.balanced, "50/50 search/insert");
      (Workload.read_mostly, "80/20 search/insert");
    ]

(* ------------------------------------------------------------------ *)
(* E3: compression keeps nodes at least half full                      *)
(* ------------------------------------------------------------------ *)

let leaf_fill (rep : Validate.report) =
  match
    List.find_opt (fun (l : Validate.level_stats) -> l.Validate.level = 0) rep.Validate.levels
  with
  | Some l -> l.Validate.avg_fill
  | None -> 0.0

let e3_row name t =
  let rep = V.check t in
  [
    name;
    string_of_int rep.Validate.height;
    string_of_int rep.Validate.total_nodes;
    string_of_int rep.Validate.total_keys;
    Report.fmt_f (leaf_fill rep);
    Report.fmt_bytes rep.Validate.encoded_bytes;
  ]

let e3 () =
  Report.heading "E3: compression restores occupancy and reclaims space";
  Report.note
    "Claim (§5.1): the compression process redistributes data so each node \
     holds >= k pairs and releases empty nodes; without it (Lehman-Yao \
     regime) space is wasted and the tree stays too tall.";
  let n = scale 100_000 in
  let build () =
    let t = S.create ~order:8 () in
    let c = ctx ~slot:0 in
    for k = 1 to n do
      ignore (S.insert t c k k)
    done;
    (t, c)
  in
  let delete_80 t c =
    for k = 1 to n do
      if k mod 5 <> 0 then ignore (S.delete t c k)
    done
  in
  let t0, c0 = build () in
  let built_row = e3_row "after build" t0 in
  delete_80 t0 c0;
  let no_comp_row = e3_row "deleted 80%, no compression (LY regime)" t0 in
  (* scan compression on the same tree *)
  let passes = C.compress_to_fixpoint t0 c0 in
  ignore (S.reclaim t0);
  let scan_row = e3_row (Printf.sprintf "after scan compression (%d passes)" passes) t0 in
  (* queue-driven compression on a fresh tree *)
  let t1 = S.create ~order:8 ~enqueue_on_delete:true () in
  let c1 = ctx ~slot:0 in
  for k = 1 to n do
    ignore (S.insert t1 c1 k k)
  done;
  delete_80 t1 c1;
  (match Co.run_until_empty t1 c1 with
  | `Drained -> ()
  | `Step_limit -> Report.note "WARN: step limit");
  ignore (S.reclaim t1);
  let queue_row = e3_row "after queue-driven compaction" t1 in
  Report.table
    ~header:[ "state"; "height"; "nodes"; "keys"; "avg leaf fill"; "bytes" ]
    [ built_row; no_comp_row; scan_row; queue_row ]

(* ------------------------------------------------------------------ *)
(* E4: restarts are rare                                               *)
(* ------------------------------------------------------------------ *)

let e4 () =
  Report.heading "E4: wrong-node restarts under concurrent compaction";
  Report.note
    "Claim (§1): solving the wrong-node problem by restarting is cheaper \
     than lock queues because it happens infrequently.";
  let space = scale 100_000 in
  let ops = scale 50_000 in
  let raw, h = Tree_intf.sagiv_raw ~enqueue_on_delete:true ~order:8 () in
  let spec = Workload.spec ~op_mix:Workload.mixed_sid ~key_space:space ~preload:space () in
  ignore (Driver.preload h ~seed:9 spec);
  let r, comp =
    Driver.run_ops_with_compaction raw h ~domains:4 ~compactors:2 ~ops_per_domain:ops
      ~seed:9 spec
  in
  let st = r.Driver.stats in
  let per100k field = 100_000.0 *. float_of_int field /. float_of_int st.Stats.ops in
  Report.table
    ~header:[ "metric"; "total"; "per 100k ops" ]
    [
      [ "worker ops"; string_of_int st.Stats.ops; "-" ];
      [
        "restarts (case 2)";
        string_of_int st.Stats.restarts;
        Report.fmt_f (per100k st.Stats.restarts);
      ];
      [
        "tombstone follows (case 1)";
        string_of_int st.Stats.fwd_follows;
        Report.fmt_f (per100k st.Stats.fwd_follows);
      ];
      [
        "link follows";
        string_of_int st.Stats.link_follows;
        Report.fmt_f (per100k st.Stats.link_follows);
      ];
      [
        "lock-retry moves";
        string_of_int st.Stats.retries;
        Report.fmt_f (per100k st.Stats.retries);
      ];
      [ "compactor merges"; string_of_int comp.Stats.merges; "-" ];
      [ "compactor redistributions"; string_of_int comp.Stats.redistributions; "-" ];
    ];
  let rep = V.check raw in
  Report.note
    (if Validate.ok rep then "tree valid after run"
     else "TREE INVALID: " ^ String.concat "; " rep.Validate.errors)

(* ------------------------------------------------------------------ *)
(* E5: any number of compression processes run in parallel             *)
(* ------------------------------------------------------------------ *)

let e5 () =
  Report.heading "E5: parallel compaction (deadlock-free, shared queue)";
  Report.note
    "Claim (§5.4, Thm 2): any number of compression processes may run \
     concurrently with updaters; insertions' single locks make deadlock \
     impossible.";
  let n = scale 100_000 in
  (* (a) quiescent drain wall-time vs #compactors *)
  let drain_with compactors =
    let t = S.create ~order:8 ~enqueue_on_delete:true () in
    let c = ctx ~slot:0 in
    for k = 1 to n do
      ignore (S.insert t c k k)
    done;
    for k = 1 to n do
      if k mod 4 <> 0 then ignore (S.delete t c k)
    done;
    let queued = Cqueue.length t.Handle.queue in
    let t0 = Repro_util.Clock.now () in
    let workers =
      Array.init compactors (fun i ->
          Domain.spawn (fun () ->
              let cc = ctx ~slot:(1 + i) in
              (match Co.run_until_empty t cc with `Drained -> () | `Step_limit -> ());
              cc))
    in
    let ctxs = Array.map Domain.join workers in
    let dt = Repro_util.Clock.now () -. t0 in
    let merges =
      Array.fold_left (fun acc (c : Handle.ctx) -> acc + c.Handle.stats.Stats.merges) 0 ctxs
    in
    let valid = Validate.ok (V.check t) in
    [
      string_of_int compactors;
      string_of_int queued;
      Report.fmt_f ~digits:3 dt ^ "s";
      string_of_int merges;
      (if valid then "yes" else "NO");
    ]
  in
  Report.note "(a) quiescent drain after deleting 75%:";
  Report.table
    ~header:[ "compactors"; "queued"; "drain time"; "merges"; "valid" ]
    (List.map drain_with [ 1; 2; 4 ]);
  (* (b) updater throughput with live compactors *)
  Report.note "(b) update throughput while compactors run:";
  let rows =
    List.map
      (fun compactors ->
        let raw, h = Tree_intf.sagiv_raw ~enqueue_on_delete:true ~order:8 () in
        let spec =
          Workload.spec ~op_mix:Workload.delete_heavy ~key_space:n ~preload:n ()
        in
        ignore (Driver.preload h ~seed:5 spec);
        let r, comp =
          if compactors = 0 then
            ( Driver.run_ops h ~domains:3 ~ops_per_domain:(scale 30_000) ~seed:5 spec,
              Stats.create () )
          else
            Driver.run_ops_with_compaction raw h ~domains:3 ~compactors
              ~ops_per_domain:(scale 30_000) ~seed:5 spec
        in
        [
          string_of_int compactors;
          Report.fmt_si r.Driver.throughput ^ "/s";
          string_of_int comp.Stats.merges;
          string_of_int (Cqueue.length raw.Handle.queue);
        ])
      [ 0; 1; 2 ]
  in
  Report.table ~header:[ "compactors"; "updater tput"; "merges"; "queue left" ] rows

(* ------------------------------------------------------------------ *)
(* E6: the B-link cost — link chases per search                        *)
(* ------------------------------------------------------------------ *)

let e6 () =
  Report.heading "E6: search cost — link chases vs locks";
  Report.note
    "Claim (§1): a search may be prolonged by moving right through links, \
     but this is more than compensated by taking no locks (lock-coupling \
     readers latch every node; coarse readers serialise behind updaters).";
  let space = scale 200_000 in
  let rows =
    List.map
      (fun (impl : Tree_intf.impl) ->
        let h = impl.Tree_intf.make ~order:16 in
        preload_handle h ~n:(space / 2) ~space;
        let spec =
          Workload.spec ~op_mix:Workload.balanced ~key_space:space ~preload:0 ()
        in
        let r = Driver.run_ops h ~domains:4 ~ops_per_domain:(scale 20_000) ~seed:3 spec in
        let st = r.Driver.stats in
        [
          impl.Tree_intf.impl_name;
          Report.fmt_f ~digits:4 (stats_per_op st st.Stats.link_follows);
          Report.fmt_f (stats_per_op st st.Stats.lock_acquisitions);
          Report.fmt_f (stats_per_op st st.Stats.gets);
          Report.fmt_si r.Driver.throughput ^ "/s";
        ])
      Tree_intf.all
  in
  Report.table
    ~header:[ "tree"; "links/op"; "locks/op"; "node reads/op"; "tput (4 domains)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E7: emptying a tree takes O(log2 n) compression passes              *)
(* ------------------------------------------------------------------ *)

let e7 () =
  Report.heading "E7: compression passes to empty a tree";
  Report.note "Claim (§5.1): O(log2 n) passes of compress-level empty the tree.";
  let sizes = if !quick then [ 1_000; 10_000 ] else [ 1_000; 10_000; 100_000 ] in
  let rows =
    List.map
      (fun n ->
        let t = S.create ~order:2 () in
        let c = ctx ~slot:0 in
        for k = 1 to n do
          ignore (S.insert t c k k)
        done;
        let h0 = S.height t in
        for k = 1 to n do
          ignore (S.delete t c k)
        done;
        let passes = C.compress_to_fixpoint t c in
        [
          string_of_int n;
          string_of_int h0;
          string_of_int passes;
          Report.fmt_f (log (float_of_int n) /. log 2.0);
          string_of_int (S.height t);
        ])
      sizes
  in
  Report.table ~header:[ "keys"; "height before"; "passes"; "log2 n"; "height after" ] rows

(* ------------------------------------------------------------------ *)
(* E8: single-threaded micro-latency (bechamel)                        *)
(* ------------------------------------------------------------------ *)

let e8 () =
  Report.heading "E8: single-threaded micro-latency (bechamel OLS)";
  Report.note "Engineering baseline: per-op latency with no concurrency.";
  let open Bechamel in
  let space = scale 100_000 in
  let tests =
    List.concat_map
      (fun (impl : Tree_intf.impl) ->
        let h = impl.Tree_intf.make ~order:16 in
        preload_handle h ~n:(space / 2) ~space;
        let c = ctx ~slot:0 in
        let rng = Repro_util.Splitmix.create 1 in
        let fresh = ref (10 * space) in
        [
          Test.make
            ~name:(impl.Tree_intf.impl_name ^ "/search")
            (Staged.stage (fun () ->
                 ignore (h.Tree_intf.search c (Repro_util.Splitmix.int rng space))));
          Test.make
            ~name:(impl.Tree_intf.impl_name ^ "/insert")
            (Staged.stage (fun () ->
                 incr fresh;
                 ignore (h.Tree_intf.insert c !fresh 0)));
        ])
      Tree_intf.all
  in
  let test = Test.make_grouped ~name:"trees" tests in
  let benchmarks =
    Benchmark.all
      (Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ())
      [ Toolkit.Instance.monotonic_clock ]
      test
  in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock benchmarks in
  let rows = ref [] and jrows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with Some (e :: _) -> Some e | _ -> None
      in
      let r2 = Analyze.OLS.r_square ols_result in
      let fmt_opt f = function Some v -> f v | None -> "n/a" in
      rows :=
        [
          name;
          fmt_opt (fun e -> Report.fmt_f e ^ " ns") est;
          fmt_opt (Report.fmt_f ~digits:4) r2;
        ]
        :: !rows;
      jrows :=
        J.Obj
          [
            ("bench", J.Str name);
            ("ns_per_op", match est with Some e -> J.Float e | None -> J.Bool false);
            ("r_square", match r2 with Some r -> J.Float r | None -> J.Bool false);
          ]
        :: !jrows)
    results;
  Report.table ~header:[ "bench"; "time/op"; "r^2" ] (List.sort compare !rows);
  record_json "E8"
    (J.List (List.sort (fun a b -> compare (J.to_string a) (J.to_string b)) !jrows))

(* ------------------------------------------------------------------ *)
(* E11: disk-resident concurrency — IO stripes                         *)
(* ------------------------------------------------------------------ *)

let e11 () =
  Report.heading "E11: disk-resident concurrency — IO stripes";
  Report.note
    ("sagiv-disk under a mixed workload with a node cache far smaller than \
     the working set, sweeping the store's IO stripe count (1 stripe = the \
     old single-global-IO-lock regime). Eviction writes dirty victims back \
     inline. The store is memory-backed, so the gain comes from shorter \
     critical sections (less convoying on one hot mutex), not from \
     parallel disk IO; "
    ^ scaling_note ^ ".");
  let space = scale 60_000 in
  let cache_pages = 128 in
  let total_ops = scale 120_000 in
  let spec =
    Workload.spec ~op_mix:Workload.mixed_sid ~key_space:space
      ~preload:(space / 2) ()
  in
  let stripe_counts = [ 1; 4; 16 ] in
  let domain_counts = [ 1; 2; 4 ] in
  (* Throughput under a thrashing cache is noisy run-to-run (allocator /
     scheduler luck); measure each config several times on a fresh store
     and report the median trial, compacting the heap between trials so
     one trial's garbage can't tax the next. Quick mode keeps the CI
     smoke run cheap. *)
  let trials = if !quick then 3 else 5 in
  let run_once stripes domains =
    Gc.compact ();
    let sst =
      Tree_intf.Sharded_int.create_memory
        ~page_size:(Tree_intf.page_size_for_order 16) ~cache_pages ~stripes
        ~shards:1 ()
    in
    let _, h = Tree_intf.sagiv_disk_sharded_on ~order:16 sst in
    let store = Tree_intf.Sharded_int.store sst 0 in
    ignore (Driver.preload h ~seed:42 spec);
    let r =
      Driver.run_ops h ~domains ~ops_per_domain:(total_ops / domains) ~seed:42
        spec
    in
    ( r.Driver.throughput,
      Tree_intf.Paged_int.io_stats store,
      Tree_intf.Paged_int.stripe_count store )
  in
  let tputs = Hashtbl.create 16 in
  let jrows = ref [] in
  let rows =
    List.concat_map
      (fun stripes ->
        List.map
          (fun domains ->
            let runs = List.init trials (fun _ -> run_once stripes domains) in
            let sorted =
              List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) runs
            in
            let tput, io, nstripes = List.nth sorted (trials / 2) in
            Hashtbl.replace tputs (stripes, domains) tput;
            jrows :=
              J.Obj
                [
                  ("stripes", J.Int nstripes);
                  ("domains", J.Int domains);
                  ("ops_per_s", J.Float tput);
                  ("faults", J.Int io.Stats.faults);
                  ("fault_stall_ms", J.Float (1e3 *. io.Stats.fault_stall_s));
                  ("wb_inline", J.Int io.Stats.inline_writebacks);
                  ("max_concurrent_faults", J.Int io.Stats.max_concurrent_faults);
                ]
              :: !jrows;
            [
              string_of_int stripes;
              string_of_int domains;
              Report.fmt_si tput ^ "/s";
              string_of_int io.Stats.faults;
              Report.fmt_f (1e3 *. io.Stats.fault_stall_s) ^ "ms";
              string_of_int io.Stats.inline_writebacks;
              string_of_int io.Stats.max_concurrent_faults;
            ])
          domain_counts)
      stripe_counts
  in
  Report.table
    ~header:
      [
        "stripes"; "domains"; "tput"; "faults"; "fault stall"; "wb inline";
        "max conc faults";
      ]
    rows;
  record_json "E11"
    (J.Obj
       [
         ("space", J.Int space);
         ("cache_pages", J.Int cache_pages);
         ("total_ops", J.Int total_ops);
         ("rows", J.List (List.rev !jrows));
       ]);
  match
    ( Hashtbl.find_opt tputs (1, 4),
      Hashtbl.find_opt tputs (4, 4),
      Hashtbl.find_opt tputs (16, 4) )
  with
  | Some base, Some s4, Some s16 ->
      Report.note
        (Printf.sprintf
           "verdict @ 4 domains: 4 stripes = %.2fx the 1-stripe (global-lock) \
            control, 16 stripes = %.2fx"
           (s4 /. base) (s16 /. base))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* A1–A4: ablations of the paper's design choices                      *)
(* ------------------------------------------------------------------ *)

let a1 () =
  Report.heading "A1 (ablation): node order k";
  Report.note
    "Sweep the paper's k (capacity 2k). Larger nodes mean shallower trees \
     and fewer splits but more copying per rewrite.";
  let space = scale 200_000 in
  let rows =
    List.map
      (fun order ->
        let raw, h = Tree_intf.sagiv_raw ~order () in
        let spec = Workload.spec ~op_mix:Workload.balanced ~key_space:space ~preload:(space / 2) () in
        ignore (Driver.preload h ~seed:21 spec);
        let r = Driver.run_ops h ~domains:4 ~ops_per_domain:(scale 20_000) ~seed:21 spec in
        let rep = V.check raw in
        [
          string_of_int order;
          Report.fmt_si r.Driver.throughput ^ "/s";
          string_of_int rep.Validate.height;
          string_of_int rep.Validate.total_nodes;
          Report.fmt_f (stats_per_op r.Driver.stats r.Driver.stats.Stats.gets);
          string_of_int r.Driver.stats.Stats.splits;
        ])
      [ 2; 8; 32; 128 ]
  in
  Report.table
    ~header:[ "k"; "tput (4d)"; "height"; "nodes"; "reads/op"; "splits" ]
    rows

let a2 () =
  Report.heading "A2 (ablation): key distribution";
  Report.note
    "Sequential keys hammer the rightmost path — the worst case for \
     upward split propagation and the motivation for allowing overtaking.";
  let space = scale 200_000 in
  let dists =
    [
      ("uniform", Repro_util.Distribution.Uniform);
      ("zipf(0.99)", Repro_util.Distribution.Zipfian 0.99);
      ("sequential", Repro_util.Distribution.Sequential);
      ("hotspot", Repro_util.Distribution.Hotspot { hot_fraction = 0.1; hot_probability = 0.9 });
    ]
  in
  let rows =
    List.concat_map
      (fun (impl : Tree_intf.impl) ->
        List.map
          (fun (dname, dist) ->
            let h = impl.Tree_intf.make ~order:16 in
            let spec =
              Workload.spec ~op_mix:Workload.balanced ~key_space:space ~dist
                ~preload:(space / 2) ()
            in
            ignore (Driver.preload h ~seed:31 spec);
            let r =
              Driver.run_ops h ~domains:4 ~ops_per_domain:(scale 15_000) ~seed:31 spec
            in
            [
              impl.Tree_intf.impl_name;
              dname;
              Report.fmt_si r.Driver.throughput ^ "/s";
              Report.fmt_f ~digits:4 (stats_per_op r.Driver.stats r.Driver.stats.Stats.link_follows);
            ])
          dists)
      [ Tree_intf.sagiv (); Tree_intf.lehman_yao ]
  in
  Report.table ~header:[ "tree"; "distribution"; "tput (4d)"; "links/op" ] rows

(* Shared body for A3/A4: search-heavy churn over a small tree with tiny
   nodes and several compactors — the regime that maximises the chance a
   reader is en route to a node whose data moves left (case 2). *)
let restart_pressure_run () =
  let space = scale 30_000 in
  let raw, h = Tree_intf.sagiv_raw ~enqueue_on_delete:true ~order:2 () in
  let churn = Workload.mix ~search:0.5 ~insert:0.2 ~delete:0.3 () in
  let spec = Workload.spec ~op_mix:churn ~key_space:space ~preload:space () in
  ignore (Driver.preload h ~seed:77 spec);
  let r, _ =
    Driver.run_ops_with_compaction raw h ~domains:4 ~compactors:4
      ~ops_per_domain:(scale 60_000) ~seed:77 spec
  in
  r

let a3 () =
  Report.heading "A3 (ablation): rewrite order during redistribution";
  Report.note
    "The paper (\u{00A7}5.2, crediting Rechter & Salzberg): rewrite the child \
     that GAINS data first, then the parent, then the other child, to \
     minimise case-(2) reader restarts. Ablation inverts the order.";
  let run label =
    let r = restart_pressure_run () in
    let st = r.Driver.stats in
    [
      label;
      string_of_int st.Stats.restarts;
      string_of_int st.Stats.fwd_follows;
      Report.fmt_si r.Driver.throughput ^ "/s";
    ]
  in
  Restructure.ablate_losing_child_first := false;
  let paper = run "gains-first (paper)" in
  Restructure.ablate_losing_child_first := true;
  let flipped = run "losing-first (ablated)" in
  Restructure.ablate_losing_child_first := false;
  Report.table ~header:[ "rewrite order"; "restarts"; "fwd follows"; "tput" ]
    [ paper; flipped ]

let a4 () =
  Report.heading "A4 (ablation): restart backtracking";
  Report.note
    "\u{00A7}5.2: a restarted process backtracks through its descent stack \
     before resorting to the root. Ablation restarts from the root always.";
  let run label =
    let r = restart_pressure_run () in
    let st = r.Driver.stats in
    [
      label;
      string_of_int st.Stats.restarts;
      Report.fmt_f (stats_per_op st st.Stats.gets);
      Report.fmt_si r.Driver.throughput ^ "/s";
    ]
  in
  Access.backtrack_on_restart := true;
  let paper = run "backtrack (paper)" in
  Access.backtrack_on_restart := false;
  let ablated = run "root-restart (ablated)" in
  Access.backtrack_on_restart := true;
  Report.table ~header:[ "restart policy"; "restarts"; "reads/op"; "tput" ]
    [ paper; ablated ]

(* ------------------------------------------------------------------ *)
(* Served experiments (E14, E16): one pipelined client loop             *)
(* ------------------------------------------------------------------ *)

(* Spawn [conns] client domains against [addr]. Client [d] sends
   [per_conn] requests in pipelined batches of up to [depth] through
   [send]; [next d], called inside the client's domain, returns the
   client's request generator. Returns the seconds from the first spawn
   to the last join. *)
let drive_clients ?(send = Repro_client.Client.pipeline) addr ~conns
    ~per_conn ~depth next =
  let module Cl = Repro_client.Client in
  let t0 = Repro_util.Clock.now () in
  let domains =
    List.init conns (fun d ->
        Domain.spawn (fun () ->
            let c = Cl.connect addr in
            let draw = next d in
            let remaining = ref per_conn in
            while !remaining > 0 do
              let n = min depth !remaining in
              ignore (send c (List.init n (fun _ -> draw ())));
              remaining := !remaining - n
            done;
            Cl.close c))
  in
  List.iter Domain.join domains;
  Repro_util.Clock.now () -. t0

(* ------------------------------------------------------------------ *)
(* E14: sharded netbench — shards x connections                      *)
(* ------------------------------------------------------------------ *)

let e14 () =
  let module P = Repro_server.Protocol in
  let module Server = Repro_server.Server in
  let module Cl = Repro_client.Client in
  let module SS = Tree_intf.Sharded_int in
  Report.heading "E14: sharded netbench — shards \u{00D7} connections";
  Report.note
    "The file-backed server (4 worker domains) behind the partition \
     layer: N independent store+WAL shards, keys routed by hash, each \
     drained batch group-committing only the shards it touched before \
     its responses flush (durable acks). Each connection \
     works one fixed hash stripe of the keyspace (stripe = router hash \
     mod 8), so a batch's mutations land on one shard at every swept \
     shard count — the affinity the per-batch touched-shard commit \
     exploits. Each shard \
     has its own commit mutex, group-commit leader and log fsync \
     stream, so a shard's connections absorb into one fsync and \
     independent shards' fsyncs overlap. Mixed \
     1/4 insert, 1/4 delete, 1/2 search over a preloaded keyspace.";
  let total_ops = scale 48_000 in
  let key_space = scale 50_000 in
  let workers = 4 in
  let shard_counts = if !quick then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let conn_counts = if !quick then [ 16 ] else [ 4; 16 ] in
  let depth = 4 in
  (* Stripe the keyspace by the router hash at the finest swept shard
     count: stripe s holds the keys that land on shard s when shards=8,
     and — because [mix k mod 2^j] is determined by [mix k mod 2^k] for
     j <= k — on shard [s mod n] for every swept n. Client d draws only
     from stripe [d mod 8], holding the key population fixed across rows
     while giving every batch single-shard affinity. *)
  let stripe_keys =
    let buckets = Array.make 8 [] in
    for k = key_space - 1 downto 0 do
      let s = Repro_storage.Shard_router.shard_of ~shards:8 k in
      buckets.(s) <- k :: buckets.(s)
    done;
    Array.map Array.of_list buckets
  in
  let jrows = ref [] in
  let run shards conns =
    Gc.compact ();
    let per_conn = total_ops / conns in
    let path = Filename.temp_file "e14" ".pages" in
    let wal_path = path ^ ".wal" in
    let sst = SS.create_file ~cache_pages:2048 ~shards path in
    let _trees, handle = Tree_intf.sagiv_disk_sharded_on ~order:16 sst in
    (* Preload the whole keyspace before timing: the working set then
       overflows a single shard's buffer pool (the partition layer gives
       each shard its own), and the timed mutations land on a fully
       built tree. *)
    let pctx = ctx ~slot:0 in
    for k = 0 to key_space - 1 do
      ignore (handle.Tree_intf.insert pctx k k)
    done;
    handle.Tree_intf.commit ();
    let srv =
      Server.start ~workers ~durable_acks:true ~handle
        ~listen:[ Unix.ADDR_INET (Unix.inet_addr_loopback, 0) ]
        ()
    in
    let addr = List.hd (Server.addresses srv) in
    let dt =
      drive_clients addr ~conns ~per_conn ~depth
        ~send:Cl.pipeline
        (fun d ->
          let rng = Random.State.make [| 91_000 + (1000 * d) |] in
          let keys = stripe_keys.(d mod 8) in
          let nkeys = Array.length keys in
          fun () ->
            let k = keys.(Random.State.int rng nkeys) in
            match Random.State.int rng 4 with
            | 0 -> P.Insert { key = k; value = k }
            | 1 -> P.Delete { key = k }
            | _ -> P.Search { key = k })
    in
    let m = Server.stats srv in
    Server.stop srv;
    let io = SS.io_stats sst in
    (try SS.close sst with _ -> ());
    (try Sys.remove path with Sys_error _ -> ());
    for i = 0 to shards - 1 do
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ SS.shard_path path i; SS.shard_path wal_path i ]
    done;
    let tput = float_of_int (conns * per_conn) /. dt in
    let pq p = 1e6 *. Repro_util.Histogram.percentile m.Stats.latency p in
    let p50 = pq 50.0 and p99 = pq 99.0 in
    let shard_acks = Array.to_list m.Stats.shard_acks in
    jrows :=
      J.Obj
        [
          ("shards", J.Int shards);
          ("workers", J.Int workers);
          ("conns", J.Int conns);
          ("depth", J.Int depth);
          ("ops_per_s", J.Float tput);
          ("svc_p50_us", J.Float p50);
          ("svc_p99_us", J.Float p99);
          ("acked_commits", J.Int m.Stats.acked_commits);
          ("shard_acks", J.List (List.map (fun n -> J.Int n) shard_acks));
          ("wal_fsyncs", J.Int io.Stats.wal_fsyncs);
          ("wal_records", J.Int io.Stats.wal_records);
        ]
      :: !jrows;
    [
      string_of_int shards;
      string_of_int conns;
      Report.fmt_si tput ^ "/s";
      Report.fmt_f p50 ^ "us";
      Report.fmt_f p99 ^ "us";
      string_of_int m.Stats.acked_commits;
      String.concat "/" (List.map string_of_int shard_acks);
    ]
  in
  let rows =
    List.concat_map (fun shards -> List.map (run shards) conn_counts) shard_counts
  in
  Report.table
    ~header:
      [ "shards"; "conns"; "tput"; "svc p50"; "svc p99"; "commits"; "shard acks" ]
    rows;
  record_json "E14"
    (J.Obj
       [
         ("total_ops", J.Int total_ops);
         ("key_space", J.Int key_space);
         ("workers", J.Int workers);
         ("depth", J.Int depth);
         ("rows", J.List (List.rev !jrows));
       ])

(* ------------------------------------------------------------------ *)
(* E16: log-shipping replication — followers vs standalone             *)
(* ------------------------------------------------------------------ *)

let e16 () =
  let module P = Repro_server.Protocol in
  let module Server = Repro_server.Server in
  let module Cl = Repro_client.Client in
  let module R = Repro_client.Replica in
  let module SS = Tree_intf.Sharded_int in
  Report.heading "E16: log-shipping replication — followers \u{00D7} write load";
  Report.note
    "A WAL primary over loopback TCP with N socket followers pulling \
     the commit stream (SUBSCRIBE) while 2 writer clients pipeline \
     durable-acked inserts. Reported: primary write throughput with the \
     shipping running, the followers' catch-up lag once the writers \
     stop, and read throughput against one caught-up replica at its \
     horizon. One machine serves everything, so followers compete with \
     the primary for the same cores — the follower columns price the \
     machinery, not a second box.";
  let writers = 2 in
  let per_writer = scale 6_000 in
  let key_space = scale 20_000 in
  let depth = 64 in
  let reads = scale 60_000 in
  let follower_counts = if !quick then [ 0; 1 ] else [ 0; 1; 2; 4 ] in
  let jrows = ref [] in
  let run followers =
    Gc.compact ();
    let path = Filename.temp_file "e16" ".pages" in
    let sst = SS.create_file ~cache_pages:4096 ~shards:1 path in
    let _, handle = Tree_intf.sagiv_disk_sharded_on ~order:16 sst in
    let srv =
      Server.start ~workers:(writers + followers) ~durable_acks:true ~handle
        ~listen:[ Unix.ADDR_INET (Unix.inet_addr_loopback, 0) ]
        ()
    in
    let addr = List.hd (Server.addresses srv) in
    let writers_done = Atomic.make false in
    let t_done = ref 0.0 in
    (* each follower pulls until it is caught up *after* the writers
       stopped; its lag is measured from that stop *)
    let follower_domains =
      List.init followers (fun _ ->
          Domain.spawn (fun () ->
              let r = R.create () in
              let c = Cl.connect addr in
              let rec pull () =
                match R.poll ~wait_ms:50 r c with
                | `Applied _ -> pull ()
                | `Caught_up ->
                    if Atomic.get writers_done then
                      Repro_util.Clock.now () -. !t_done
                    else pull ()
              in
              let lag = pull () in
              Cl.close c;
              (r, lag)))
    in
    let dt =
      drive_clients addr ~conns:writers ~per_conn:per_writer ~depth (fun d ->
          let rng = Random.State.make [| 160_000 + (1000 * d) |] in
          fun () ->
            let k = Random.State.int rng key_space in
            P.Insert { key = k; value = k })
    in
    t_done := Repro_util.Clock.now ();
    Atomic.set writers_done true;
    let replicas = List.map Domain.join follower_domains in
    let catchup_ms =
      List.fold_left (fun acc (_, lag) -> Float.max acc (lag *. 1e3)) 0.0
        replicas
    in
    (* read throughput against one caught-up replica, in process *)
    let read_tput =
      match replicas with
      | [] -> 0.0
      | (r, _) :: _ ->
          let ctx = Repro_core.Handle.ctx ~slot:0 in
          let rng = Random.State.make [| 170_000 |] in
          let tr = Repro_util.Clock.now () in
          for _ = 1 to reads do
            ignore (R.search r ctx (Random.State.int rng key_space))
          done;
          float_of_int reads /. (Repro_util.Clock.now () -. tr)
    in
    let primary_card = handle.Tree_intf.cardinal () in
    (match replicas with
    | (r, _) :: _ when R.cardinal r <> primary_card ->
        failwith
          (Printf.sprintf "E16: replica diverged (%d keys vs %d)"
             (R.cardinal r) primary_card)
    | _ -> ());
    Server.stop srv;
    (try SS.close sst with _ -> ());
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ path; SS.shard_path path 0; SS.shard_path (path ^ ".wal") 0 ];
    let tput = float_of_int (writers * per_writer) /. dt in
    jrows :=
      J.Obj
        [
          ("followers", J.Int followers);
          ("write_ops_per_s", J.Float tput);
          ("catchup_ms", J.Float catchup_ms);
          ("replica_read_ops_per_s", J.Float read_tput);
          ("primary_cardinal", J.Int primary_card);
        ]
      :: !jrows;
    [
      string_of_int followers;
      Report.fmt_si tput ^ "/s";
      Report.fmt_f catchup_ms ^ "ms";
      (if followers = 0 then "-" else Report.fmt_si read_tput ^ "/s");
    ]
  in
  let rows = List.map run follower_counts in
  Report.table
    ~header:[ "followers"; "write tput"; "catch-up"; "replica reads" ]
    rows;
  record_json "E16"
    (J.Obj
       [
         ("writers", J.Int writers);
         ("per_writer_ops", J.Int per_writer);
         ("key_space", J.Int key_space);
         ("depth", J.Int depth);
         ("replica_reads", J.Int reads);
         ("rows", J.List (List.rev !jrows));
       ])

(* ------------------------------------------------------------------ *)
(* E17: MVCC snapshot scans — scan throughput and writer degradation   *)
(* ------------------------------------------------------------------ *)

let e17 () =
  Report.heading "E17: MVCC snapshot scans — writer degradation under pinned scans";
  Report.note
    "Version-stamped Sagiv trees (single and 4-shard group): 4 writer \
     domains run a mixed mutation load while N scanner domains loop \
     pin-snapshot \u{2192} full consistent range \u{2192} vacuum \u{2192} release. \
     Writers never stall on a pin (they only append versions); the cost \
     is version-chain growth bounded by the vacuum riding each sweep. \
     On a timeshared substrate a busy scanner also steals raw CPU from \
     the writers, so each scan row is paired with a control run whose N \
     aux domains spin without touching the tree: 'vs ctrl' is the \
     degradation attributable to MVCC scanning itself (acceptance: \
     within 20% of the control), 'vs idle' the raw ratio against the \
     0-scanner baseline. Version gauges are read at the end of the run.";
  let space = scale 100_000 in
  let preload = space / 2 in
  let ops = scale 30_000 in
  let domains = 4 in
  let spec =
    Workload.spec ~op_mix:Workload.mixed_sid ~key_space:space ~preload ()
  in
  let scanner_counts = [ 0; 1; 2 ] in
  let impls =
    [ Tree_intf.sagiv_mvcc (); Tree_intf.sagiv_mvcc_sharded ~shards:4 () ]
  in
  let jrows = ref [] in
  let baselines = Hashtbl.create 4 in
  (* one timed workload run: [aux_of h m] builds the aux domain array
     (spinner controls or live scanners) for a fresh preloaded handle *)
  let timed_run (impl : Tree_intf.impl) aux_of =
    Gc.compact ();
    let h = impl.Tree_intf.make ~order:16 in
    let m =
      match h.Tree_intf.mvcc with
      | Some m -> m
      | None -> failwith "E17 needs an mvcc handle"
    in
    ignore (Driver.preload h ~seed:17 spec);
    let aux = aux_of m in
    let r =
      if Array.length aux = 0 then
        Driver.run_ops h ~domains ~ops_per_domain:ops ~seed:17 spec
      else
        fst
          (Driver.run_ops_with_aux h ~domains ~aux ~ops_per_domain:ops
             ~seed:17 spec)
    in
    (r, m.Tree_intf.gauges ())
  in
  let spinner ~stop _c =
    (* CPU-equivalent control: burn the same timeshared core without
       touching the tree, so the scan rows' ratio against this isolates
       the MVCC interference from plain CPU stealing *)
    while not (Atomic.get stop) do
      for _ = 1 to 1000 do
        Domain.cpu_relax ()
      done
    done
  in
  (* throughput under a timeshared core is noisy run-to-run; measure
     each (config, paired control) several times and report the trial
     with the median acceptance ratio *)
  let trials = if !quick then 1 else 3 in
  let rows =
    List.concat_map
      (fun (impl : Tree_intf.impl) ->
        List.map
          (fun scanners ->
            let one_trial () =
              let sweeps = Atomic.make 0 in
              let pairs_seen = Atomic.make 0 in
              let scan_time = Atomic.make 0 (* microseconds, summed *) in
              let scanner m ~stop c =
                while not (Atomic.get stop) do
                  let t0 = Repro_util.Clock.now () in
                  let s = m.Tree_intf.snapshot () in
                  let pairs = s.Tree_intf.snap_range c ~lo:0 ~hi:space in
                  (* reclamation rides the scan loop: prune version
                     tails that fell behind every pin, then drop ours *)
                  ignore (m.Tree_intf.vacuum c : int);
                  s.Tree_intf.snap_release ();
                  Atomic.incr sweeps;
                  ignore
                    (Atomic.fetch_and_add pairs_seen (List.length pairs)
                      : int);
                  ignore
                    (Atomic.fetch_and_add scan_time
                       (int_of_float (1e6 *. (Repro_util.Clock.now () -. t0)))
                      : int)
                done
              in
              let control =
                if scanners = 0 then None
                else
                  Some
                    (fst
                       (timed_run impl (fun _m ->
                            Array.make scanners (fun ~stop c ->
                                spinner ~stop c))))
              in
              let r, g =
                timed_run impl (fun m ->
                    Array.make scanners (fun ~stop c -> scanner m ~stop c))
              in
              let vs_ctrl =
                match control with
                | None -> 1.0
                | Some c -> r.Driver.throughput /. c.Driver.throughput
              in
              let pair_rate =
                let us = Atomic.get scan_time in
                if us = 0 then 0.0
                else
                  1e6
                  *. float_of_int (Atomic.get pairs_seen)
                  /. float_of_int us
              in
              (vs_ctrl, r, g, control, Atomic.get sweeps, pair_rate)
            in
            let runs = List.init trials (fun _ -> one_trial ()) in
            let sorted =
              List.sort
                (fun (a, _, _, _, _, _) (b, _, _, _, _, _) ->
                  Float.compare a b)
                runs
            in
            let vs_ctrl, r, g, control, sweeps_n, pair_rate =
              List.nth sorted (trials / 2)
            in
            if scanners = 0 then
              Hashtbl.replace baselines impl.Tree_intf.impl_name
                r.Driver.throughput;
            let base =
              Option.value ~default:r.Driver.throughput
                (Hashtbl.find_opt baselines impl.Tree_intf.impl_name)
            in
            let vs_idle = r.Driver.throughput /. base in
            let sweep_rate = float_of_int sweeps_n /. r.Driver.elapsed_s in
            jrows :=
              J.Obj
                [
                  ("impl", J.Str impl.Tree_intf.impl_name);
                  ("scanners", J.Int scanners);
                  ("writer_ops_per_s", J.Float r.Driver.throughput);
                  ( "control_ops_per_s",
                    match control with
                    | Some c -> J.Float c.Driver.throughput
                    | None -> J.Float r.Driver.throughput );
                  ("vs_idle", J.Float vs_idle);
                  ("vs_control", J.Float vs_ctrl);
                  ("sweeps", J.Int sweeps_n);
                  ("sweeps_per_s", J.Float sweep_rate);
                  ("scan_pairs_per_s", J.Float pair_rate);
                  ("live_versions", J.Int g.Tree_intf.g_live_versions);
                  ("pruned_versions", J.Int g.Tree_intf.g_pruned_versions);
                ]
              :: !jrows;
            [
              impl.Tree_intf.impl_name;
              string_of_int scanners;
              Report.fmt_si r.Driver.throughput ^ "/s";
              Report.fmt_f ~digits:3 vs_idle;
              (if scanners = 0 then "-" else Report.fmt_f ~digits:3 vs_ctrl);
              string_of_int sweeps_n;
              (if scanners = 0 then "-" else Report.fmt_si pair_rate ^ "/s");
              string_of_int g.Tree_intf.g_live_versions;
              string_of_int g.Tree_intf.g_pruned_versions;
            ])
          scanner_counts)
      impls
  in
  Report.table
    ~header:
      [
        "impl"; "scanners"; "writer tput"; "vs idle"; "vs ctrl"; "sweeps";
        "scan pairs"; "versions"; "pruned";
      ]
    rows;
  (* (b) the price of the consistent read path itself: one quiescent
     full sweep, weak leaf-chain range vs pinned snap_range *)
  let quiescent_rows, jquiet =
    let weak =
      let h = (Tree_intf.sagiv ()).Tree_intf.make ~order:16 in
      ignore (Driver.preload h ~seed:17 spec);
      let c = ctx ~slot:0 in
      let range = Option.get h.Tree_intf.range in
      let t0 = Repro_util.Clock.now () in
      let n = List.length (range c ~lo:0 ~hi:space) in
      let dt = Repro_util.Clock.now () -. t0 in
      ("sagiv leaf-chain (weak)", n, float_of_int n /. dt)
    in
    let snap =
      let h = (Tree_intf.sagiv_mvcc ()).Tree_intf.make ~order:16 in
      ignore (Driver.preload h ~seed:17 spec);
      let m = Option.get h.Tree_intf.mvcc in
      let c = ctx ~slot:0 in
      let s = m.Tree_intf.snapshot () in
      let t0 = Repro_util.Clock.now () in
      let n = List.length (s.Tree_intf.snap_range c ~lo:0 ~hi:space) in
      let dt = Repro_util.Clock.now () -. t0 in
      s.Tree_intf.snap_release ();
      ("sagiv-mvcc snap_range", n, float_of_int n /. dt)
    in
    let rows =
      List.map
        (fun (name, n, rate) ->
          [ name; string_of_int n; Report.fmt_si rate ^ "/s" ])
        [ weak; snap ]
    in
    let j =
      List.map
        (fun (name, n, rate) ->
          J.Obj
            [
              ("source", J.Str name);
              ("pairs", J.Int n);
              ("pairs_per_s", J.Float rate);
            ])
        [ weak; snap ]
    in
    (rows, j)
  in
  Report.note "(b) quiescent full-sweep read path:";
  Report.table ~header:[ "scan source"; "pairs"; "pairs/s" ] quiescent_rows;
  record_json "E17"
    (J.Obj
       [
         ("space", J.Int space);
         ("preload", J.Int preload);
         ("writer_domains", J.Int domains);
         ("ops_per_domain", J.Int ops);
         ("rows", J.List (List.rev !jrows));
         ("quiescent", J.List jquiet);
       ]);
  List.iter
    (fun (impl : Tree_intf.impl) ->
      match Hashtbl.find_opt baselines impl.Tree_intf.impl_name with
      | None -> ()
      | Some base ->
          let worst =
            List.fold_left
              (fun acc j ->
                match j with
                | J.Obj kvs
                  when List.assoc_opt "impl" kvs
                       = Some (J.Str impl.Tree_intf.impl_name) -> (
                    match List.assoc_opt "vs_control" kvs with
                    | Some (J.Float r) -> Float.min acc r
                    | _ -> acc)
                | _ -> acc)
              1.0 !jrows
          in
          (* one --quick trial lasts milliseconds: its ratio is noise,
             so it is reported without a verdict *)
          Report.note
            (Printf.sprintf
               "verdict %s: worst writer throughput under scans = %.2fx the \
                CPU-equivalent control (idle baseline %s/s) — %s"
               impl.Tree_intf.impl_name worst (Report.fmt_si base)
               (if !quick then "no verdict at --quick scale"
                else if worst >= 0.8 then "within the 20% acceptance bound"
                else "OUTSIDE the 20% acceptance bound")))
    impls

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("E1", e1);
    ("E2", e2);
    ("E3", e3);
    ("E4", e4);
    ("E5", e5);
    ("E6", e6);
    ("E7", e7);
    ("E8", e8);
    ("E11", e11);
    ("E14", e14);
    ("E16", e16);
    ("E17", e17);
    ("A1", a1);
    ("A2", a2);
    ("A3", a3);
    ("A4", a4);
  ]

let () =
  let json_path = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
        quick := true;
        parse acc rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse acc rest
    | [ "--json" ] ->
        prerr_endline "--json needs a path";
        exit 2
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let selected =
    if args = [] then experiments
    else
      List.filter_map
        (fun name ->
          match List.assoc_opt (String.uppercase_ascii name) experiments with
          | Some f -> Some (name, f)
          | None ->
              Printf.eprintf "unknown experiment %s (have: %s)\n" name
                (String.concat " " (List.map fst experiments));
              exit 2)
        args
  in
  Printf.printf "Sagiv B*-tree reproduction benchmarks%s\n"
    (if !quick then " (quick mode)" else "");
  Printf.printf "cores available: %d (%s)\n" cores scaling_note;
  let gc0 = Gc.get () in
  List.iter
    (fun (_, f) ->
      f ();
      (* Undo any GC tuning an experiment's harness left behind (bechamel
         sets max_overhead to 1M — compaction off — and never restores
         it) and return the experiment's heap to the OS, so one
         experiment's footprint can't skew the next one's numbers. *)
      Gc.set gc0;
      Gc.compact ())
    selected;
  match !json_path with
  | None -> ()
  | Some path ->
      let doc =
        J.Obj
          [
            ("quick", J.Bool !quick);
            ("cores", J.Int cores);
            ("experiments", J.Obj (List.rev !json_out));
          ]
      in
      let oc = open_out path in
      output_string oc (J.to_string doc);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path
