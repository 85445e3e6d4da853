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
    "Claim (§1): fewer/shorter locks allow a higher degree of concurrency. \
     Single-core substrate: differences show as blocking/overhead, not speedup.";
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
    let t0 = Unix.gettimeofday () in
    let workers =
      Array.init compactors (fun i ->
          Domain.spawn (fun () ->
              let cc = ctx ~slot:(1 + i) in
              (match Co.run_until_empty t cc with `Drained -> () | `Step_limit -> ());
              cc))
    in
    let ctxs = Array.map Domain.join workers in
    let dt = Unix.gettimeofday () -. t0 in
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
(* E9: the memory hierarchy — buffer-pool size vs locality             *)
(* ------------------------------------------------------------------ *)

let e9 () =
  Report.heading "E9: disk-resident baseline — buffer pool sweep";
  Report.note
    "The paper's nodes live on secondary storage (§2.2); this runs the \
     sequential B+ tree against the real pager stack (paged file + clock \
     buffer pool) and sweeps the pool size under uniform vs skewed reads.";
  let module D = Disk_btree.Make (Key.Int) in
  let n = scale 100_000 in
  let searches = scale 100_000 in
  let jsweep = ref [] in
  let rows =
    List.concat_map
      (fun (dist_name, dist) ->
        List.map
          (fun frames ->
            let pf = Paged_file.create_memory () in
            let bp = Buffer_pool.create ~frames pf in
            let t = D.create ~order:64 bp in
            for k = 1 to n do
              ignore (D.insert t k k)
            done;
            D.flush t;
            (* measure reads only *)
            let d = Repro_util.Distribution.create ~space:n dist in
            let rng = Repro_util.Splitmix.create 99 in
            let s0 = D.pool_stats t in
            let t0 = Unix.gettimeofday () in
            for _ = 1 to searches do
              ignore (D.search t (1 + Repro_util.Distribution.sample d rng))
            done;
            let dt = Unix.gettimeofday () -. t0 in
            let s1 = D.pool_stats t in
            let hits = s1.Buffer_pool.hits - s0.Buffer_pool.hits in
            let misses = s1.Buffer_pool.misses - s0.Buffer_pool.misses in
            let ratio = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
            let tput = float_of_int searches /. dt in
            jsweep :=
              J.Obj
                [
                  ("dist", J.Str dist_name);
                  ("frames", J.Int frames);
                  ("hit_ratio", J.Float ratio);
                  ("searches_per_s", J.Float tput);
                ]
              :: !jsweep;
            [
              dist_name;
              string_of_int frames;
              Report.fmt_f ~digits:3 ratio;
              Report.fmt_si tput ^ "/s";
            ])
          [ 8; 64; 512; 4096 ])
      [
        ("uniform", Repro_util.Distribution.Uniform);
        ("zipf(0.99)", Repro_util.Distribution.Zipfian 0.99);
      ]
  in
  Report.table ~header:[ "read dist"; "pool frames"; "hit ratio"; "searches/s" ] rows;
  Report.note
    "Same hierarchy under the concurrent tree: Sagiv over the in-memory \
     Store vs over Paged_store (codec + node cache + eviction), 4 domains, \
     50/50 search/insert, node cache swept.";
  let domains = 4 in
  let ops_per_domain = scale 40_000 in
  let space = scale 100_000 in
  let spec = Workload.spec ~op_mix:Workload.balanced ~key_space:space ~preload:(space / 2) () in
  let measure h =
    ignore (Driver.preload h ~seed:42 spec);
    let r = Driver.run_ops h ~domains ~ops_per_domain ~seed:42 spec in
    r.Driver.throughput
  in
  let jtrees = ref [] in
  let mem_row =
    let h = (Tree_intf.sagiv ()).Tree_intf.make ~order:16 in
    let tput = measure h in
    jtrees := [ J.Obj [ ("tree", J.Str "sagiv-mem"); ("ops_per_s", J.Float tput) ] ];
    [ "sagiv (mem)"; "-"; Report.fmt_si tput ^ "/s"; "-"; "-" ]
  in
  let disk_rows =
    List.map
      (fun cache_pages ->
        let store = Tree_intf.Paged_int.create_memory ~cache_pages () in
        let t = Tree_intf.Sagiv_disk.create ~order:16 ~store () in
        let h = Tree_intf.(of_ops ~name:"sagiv-disk" (module Sagiv_disk) t) in
        let tput = measure h in
        let s = Tree_intf.Paged_int.pool_stats store in
        jtrees :=
          J.Obj
            [
              ("tree", J.Str "sagiv-disk");
              ("cache_pages", J.Int cache_pages);
              ("ops_per_s", J.Float tput);
              ("page_reads", J.Int s.Buffer_pool.misses);
              ("page_writes", J.Int s.Buffer_pool.writebacks);
            ]
          :: !jtrees;
        [
          "sagiv (disk)";
          string_of_int cache_pages;
          Report.fmt_si tput ^ "/s";
          string_of_int s.Buffer_pool.misses;
          string_of_int s.Buffer_pool.writebacks;
        ])
      [ 64; 512; 4096 ]
  in
  Report.table
    ~header:[ "tree"; "node cache"; "ops/s"; "page reads"; "page writes" ]
    (mem_row :: disk_rows);
  record_json "E9"
    (J.Obj
       [
         ("pool_sweep", J.List (List.rev !jsweep));
         ("sagiv_hierarchy", J.List (List.rev !jtrees));
       ])

(* ------------------------------------------------------------------ *)
(* E11: disk-resident concurrency — IO stripes                         *)
(* ------------------------------------------------------------------ *)

let e11 () =
  Report.heading "E11: disk-resident concurrency — IO stripes";
  Report.note
    "sagiv-disk under a mixed workload with a node cache far smaller than \
     the working set, sweeping the store's IO stripe count (1 stripe = the \
     old single-global-IO-lock regime). Eviction writes dirty victims back \
     inline. On this single-core substrate the gain comes from shorter \
     critical sections (less convoying on one hot mutex) — not from \
     parallel disk IO.";
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
    let raw, h = Tree_intf.sagiv_disk_raw ~cache_pages ~stripes ~order:16 () in
    let store = raw.Handle.store in
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
(* E12: durability — stop-the-world sync vs WAL group commit           *)
(* ------------------------------------------------------------------ *)

(* Wrap a disk handle so every [every]-th completed write op issues a
   durability call, timing each call into [samples]. [ckpt] = [(n, f)]
   additionally runs checkpoint [f] every [n]-th write op — how a
   WAL-mode store bounds its log (and keeps the log device overwriting
   in place instead of growing under every fsync). *)
let with_timed_commit ~every ~samples ?ckpt (h : Tree_intf.handle) =
  let count = Atomic.make 0 in
  let idx = Atomic.make 0 in
  let tick () =
    let n = Atomic.fetch_and_add count 1 in
    (match ckpt with
    | Some (ck_every, ck) when n mod ck_every = ck_every - 1 -> ck ()
    | _ -> ());
    if n mod every = every - 1 then begin
      let t0 = Unix.gettimeofday () in
      h.Tree_intf.commit ();
      let i = Atomic.fetch_and_add idx 1 in
      if i < Array.length samples then
        samples.(i) <- Unix.gettimeofday () -. t0
    end
  in
  ( {
      h with
      Tree_intf.insert =
        (fun ctx k v ->
          let r = h.Tree_intf.insert ctx k v in
          tick ();
          r);
      delete =
        (fun ctx k ->
          let r = h.Tree_intf.delete ctx k in
          tick ();
          r);
    },
    idx )

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let e12 () =
  Report.heading "E12: durability — sync-every-N vs WAL group commit";
  Report.note
    "Write-heavy mix (10/60/30 search/insert/delete) on a file-backed \
     store (real fsyncs) with a durability point every 10 completed write \
     ops: sync mode serialises a full checkpoint (every dirty page, free \
     chain, dual header, 3 fsyncs) behind one mutex per commit; WAL mode \
     logs just the dirty page images and group-commits with one log \
     fsync (checkpointing every 2000 write ops to truncate the log), \
     commit_batch > 1 letting one leader's fsync cover concurrent \
     committers. Commit latency sampled per durability call.";
  let space = scale 20_000 in
  let total_ops = scale 60_000 in
  let every = 10 in
  let cache_pages = 2048 in
  let spec =
    Workload.spec
      ~op_mix:(Workload.mix ~search:0.1 ~insert:0.6 ~delete:0.3 ())
      ~key_space:space ~preload:(space / 2) ()
  in
  let trials = if !quick then 3 else 5 in
  let domain_counts = [ 1; 2; 4 ] in
  (* (label, wal, commit_batch) *)
  let modes = [ ("sync", false, 1); ("wal", true, 1); ("wal", true, 4) ] in
  let run_once wal commit_batch domains =
    Gc.compact ();
    let path = Filename.temp_file "e12" ".pages" in
    let wal_path = path ^ ".wal" in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ path; wal_path ])
      (fun () ->
        let store =
          if wal then
            Tree_intf.Paged_int.create_file ~cache_pages ~commit_batch
              ~commit_interval:5e-4 ~wal_path path
          else Tree_intf.Paged_int.create_file ~cache_pages path
        in
        let t = Tree_intf.Sagiv_disk.create ~order:16 ~store () in
        let h0 =
          Tree_intf.of_ops
            ~commit:(fun () -> Tree_intf.Sagiv_disk.commit t)
            ~name:"sagiv-disk" (module Tree_intf.Sagiv_disk) t
        in
        ignore (Driver.preload h0 ~seed:4242 spec);
        Tree_intf.Paged_int.flush store;
        let samples = Array.make ((total_ops / every) + domains + 1) 0.0 in
        let ckpt =
          (* WAL mode checkpoints every 2000 write ops (sync mode's every
             commit already is one), truncating the log so later windows
             overwrite it in place. *)
          if wal then Some (2000, fun () -> Tree_intf.Sagiv_disk.flush t)
          else None
        in
        let h, idx = with_timed_commit ~every ~samples ?ckpt h0 in
        let r =
          Driver.run_ops h ~domains ~ops_per_domain:(total_ops / domains)
            ~seed:4242 spec
        in
        let n = min (Atomic.get idx) (Array.length samples) in
        let lat = Array.sub samples 0 n in
        Array.sort Float.compare lat;
        let io = Tree_intf.Paged_int.io_stats store in
        Tree_intf.Paged_int.close store;
        (r.Driver.throughput, lat, io))
  in
  let results = Hashtbl.create 16 in
  let jrows = ref [] in
  let rows =
    List.concat_map
      (fun (label, wal, commit_batch) ->
        List.map
          (fun domains ->
            let runs =
              List.init trials (fun _ -> run_once wal commit_batch domains)
            in
            let sorted =
              List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) runs
            in
            let tput, lat, io = List.nth sorted (trials / 2) in
            let p50 = quantile lat 0.50 and p99 = quantile lat 0.99 in
            Hashtbl.replace results (label, commit_batch, domains)
              (tput, p99);
            jrows :=
              J.Obj
                [
                  ("mode", J.Str label);
                  ("commit_batch", J.Int commit_batch);
                  ("domains", J.Int domains);
                  ("ops_per_s", J.Float tput);
                  ("commits", J.Int (Array.length lat));
                  ("commit_p50_us", J.Float (1e6 *. p50));
                  ("commit_p99_us", J.Float (1e6 *. p99));
                  ("commit_groups", J.Int io.Stats.commit_groups);
                  ("max_commit_group", J.Int io.Stats.max_commit_group);
                  ("wal_records", J.Int io.Stats.wal_records);
                  ("wal_fsyncs", J.Int io.Stats.wal_fsyncs);
                ]
              :: !jrows;
            [
              label;
              string_of_int commit_batch;
              string_of_int domains;
              Report.fmt_si tput ^ "/s";
              string_of_int (Array.length lat);
              Report.fmt_f (1e6 *. p50) ^ "us";
              Report.fmt_f (1e6 *. p99) ^ "us";
              string_of_int io.Stats.commit_groups;
              string_of_int io.Stats.max_commit_group;
              string_of_int io.Stats.wal_fsyncs;
            ])
          domain_counts)
      modes
  in
  Report.table
    ~header:
      [
        "mode"; "batch"; "domains"; "tput"; "commits"; "commit p50";
        "commit p99"; "groups"; "max group"; "log fsyncs";
      ]
    rows;
  record_json "E12"
    (J.Obj
       [
         ("space", J.Int space);
         ("total_ops", J.Int total_ops);
         ("commit_every", J.Int every);
         ("rows", J.List (List.rev !jrows));
       ]);
  match
    ( Hashtbl.find_opt results ("sync", 1, 4),
      Hashtbl.find_opt results ("wal", 1, 4),
      Hashtbl.find_opt results ("wal", 4, 4) )
  with
  | Some (sync_t, sync_p99), Some (w1_t, w1_p99), Some (w4_t, w4_p99) ->
      Report.note
        (Printf.sprintf
           "verdict @ 4 domains: wal batch=1 = %.2fx sync throughput (p99 \
            commit %.0fus vs %.0fus), wal batch=4 = %.2fx (p99 %.0fus)"
           (w1_t /. sync_t) (1e6 *. w1_p99) (1e6 *. sync_p99)
           (w4_t /. sync_t) (1e6 *. w4_p99))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* E10: YCSB-style workloads across the trees                          *)
(* ------------------------------------------------------------------ *)

let e10 () =
  Report.heading "E10: YCSB-style workloads (A/B/C/D/F), 4 domains";
  Report.note
    "Standard cloud-serving mixes on every tree: A 50/50 r/u zipf, B 95/5 \
     zipf, C read-only zipf, D 95/5 fresh-key, F RMW ~ 50/50. Latency \
     percentiles from per-op timing.";
  let space = scale 100_000 in
  let rows =
    List.concat_map
      (fun (wname, w) ->
        List.map
          (fun (impl : Tree_intf.impl) ->
            let h = impl.Tree_intf.make ~order:16 in
            let spec = Workload.ycsb ~key_space:space w in
            ignore (Driver.preload h ~seed:77 spec);
            let r =
              Driver.run_ops ~measure_latency:true h ~domains:4
                ~ops_per_domain:(scale 15_000) ~seed:77 spec
            in
            [
              wname;
              impl.Tree_intf.impl_name;
              Report.fmt_si r.Driver.throughput ^ "/s";
              (match r.Driver.latency with
              | Some hist -> Driver.percentiles_line hist
              | None -> "-");
            ])
          [ Tree_intf.sagiv (); Tree_intf.lehman_yao; Tree_intf.lock_couple_optimistic; Tree_intf.coarse ])
      [ ("A", `A); ("B", `B); ("C", `C); ("D", `D); ("F", `F) ]
  in
  Report.table ~header:[ "ycsb"; "tree"; "tput"; "latency" ] rows

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
(* E13: netbench — pipelined clients over loopback TCP                 *)
(* ------------------------------------------------------------------ *)

let e13 () =
  let module P = Repro_server.Protocol in
  let module Server = Repro_server.Server in
  let module Cl = Repro_client.Client in
  Report.heading "E13: netbench — clients \u{00D7} pipeline depth \u{00D7} durability";
  Report.note
    "An in-process server over loopback TCP, one worker domain per \
     client. mem serves the in-memory tree with fire-and-forget acks; \
     wal serves the file-backed store (real fsyncs) with durable acks — \
     each mutation batch group-commits before its responses flush, so \
     deeper pipelines amortise both the syscalls and the fsync. 50/50 \
     insert/search, per-request service latency from the server's own \
     histogram.";
  let per_client = scale 8_000 in
  let key_space = scale 50_000 in
  let client_counts = if !quick then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let depths = [ 1; 16; 128 ] in
  let modes = [ "mem"; "wal" ] in
  let jrows = ref [] in
  let run mode clients depth =
    Gc.compact ();
    let cleanup = ref (fun () -> ()) in
    let handle =
      match mode with
      | "mem" -> (Tree_intf.sagiv ()).Tree_intf.make ~order:16
      | _ ->
          let path = Filename.temp_file "e13" ".pages" in
          let wal_path = path ^ ".wal" in
          let store =
            Tree_intf.Paged_int.create_file ~cache_pages:4096 ~commit_batch:8
              ~commit_interval:5e-4 ~wal_path path
          in
          let t = Tree_intf.Sagiv_disk.create ~order:16 ~store () in
          cleanup :=
            (fun () ->
              (try Tree_intf.Paged_int.close store with _ -> ());
              List.iter
                (fun p -> try Sys.remove p with Sys_error _ -> ())
                [ path; wal_path ]);
          Tree_intf.of_ops
            ~commit:(fun () -> Tree_intf.Sagiv_disk.commit t)
            ~range:(Tree_intf.Sagiv_disk.range t)
            ~name:"sagiv-disk"
            (module Tree_intf.Sagiv_disk)
            t
    in
    let srv =
      Server.start ~workers:clients ~durable_acks:(mode = "wal") ~handle
        ~listen:[ Unix.ADDR_INET (Unix.inet_addr_loopback, 0) ]
        ()
    in
    let addr = List.hd (Server.addresses srv) in
    let t0 = Unix.gettimeofday () in
    let domains =
      List.init clients (fun d ->
          Domain.spawn (fun () ->
              let c = Cl.connect addr in
              let rng = Random.State.make [| 90_000 + (1000 * d) |] in
              let remaining = ref per_client in
              while !remaining > 0 do
                let n = min depth !remaining in
                let reqs =
                  List.init n (fun _ ->
                      let k = Random.State.int rng key_space in
                      if Random.State.bool rng then P.Insert { key = k; value = k }
                      else P.Search { key = k })
                in
                ignore (Cl.pipeline c reqs);
                remaining := !remaining - n
              done;
              Cl.close c))
    in
    List.iter Domain.join domains;
    let dt = Unix.gettimeofday () -. t0 in
    let m = Server.stats srv in
    Server.stop srv;
    !cleanup ();
    let tput = float_of_int (clients * per_client) /. dt in
    let pq p = 1e6 *. Repro_util.Histogram.percentile m.Stats.latency p in
    let p50 = pq 50.0 and p99 = pq 99.0 in
    jrows :=
      J.Obj
        [
          ("mode", J.Str mode);
          ("clients", J.Int clients);
          ("depth", J.Int depth);
          ("ops_per_s", J.Float tput);
          ("svc_p50_us", J.Float p50);
          ("svc_p99_us", J.Float p99);
          ("max_pipeline", J.Int m.Stats.max_pipeline);
          ("acked_commits", J.Int m.Stats.acked_commits);
          ("bytes_in", J.Int m.Stats.bytes_in);
          ("bytes_out", J.Int m.Stats.bytes_out);
        ]
      :: !jrows;
    [
      mode;
      string_of_int clients;
      string_of_int depth;
      Report.fmt_si tput ^ "/s";
      Report.fmt_f p50 ^ "us";
      Report.fmt_f p99 ^ "us";
      string_of_int m.Stats.max_pipeline;
      string_of_int m.Stats.acked_commits;
    ]
  in
  let rows =
    List.concat_map
      (fun mode ->
        List.concat_map
          (fun clients -> List.map (run mode clients) depths)
          client_counts)
      modes
  in
  Report.table
    ~header:
      [
        "mode"; "clients"; "depth"; "tput"; "svc p50"; "svc p99";
        "max pipeline"; "commits";
      ]
    rows;
  record_json "E13"
    (J.Obj
       [
         ("per_client_ops", J.Int per_client);
         ("key_space", J.Int key_space);
         ("rows", J.List (List.rev !jrows));
       ])

(* ------------------------------------------------------------------ *)
(* E14: sharded netbench — shards x domains x durability             *)
(* ------------------------------------------------------------------ *)

let e14 () =
  let module P = Repro_server.Protocol in
  let module Server = Repro_server.Server in
  let module Cl = Repro_client.Client in
  let module SS = Tree_intf.Sharded_int in
  Report.heading "E14: sharded netbench — shards \u{00D7} domains \u{00D7} durability";
  Report.note
    "The file-backed server (4 worker domains) behind the partition \
     layer: N independent store+WAL shards, keys routed by hash, each \
     drained batch group-committing only the shards it touched before \
     its responses flush (durable acks in both modes). Each connection \
     works one fixed hash stripe of the keyspace (stripe = router hash \
     mod 8), so a batch's mutations land on one shard at every swept \
     shard count — the affinity the batch router exploits. sync \
     degrades every ack-covering commit to a serialised full checkpoint \
     — one durability point for the whole keyspace, no absorption — \
     while wal gives each shard its own commit mutex, group-commit \
     leader and log fsync stream, so a shard's connections absorb into \
     one fsync and independent shards' fsyncs overlap. Group gathering \
     is left at the default (every commit request seals immediately), \
     so the commit stream itself is the contended resource. Mixed \
     1/4 insert, 1/4 delete, 1/2 search over a preloaded keyspace.";
  let total_ops = scale 48_000 in
  let key_space = scale 50_000 in
  let workers = 4 in
  let shard_counts = if !quick then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let conn_counts = if !quick then [ 16 ] else [ 4; 16 ] in
  let depth = 4 in
  let modes = [ "sync"; "wal" ] in
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
  let run mode shards conns =
    Gc.compact ();
    let per_conn = total_ops / conns in
    let path = Filename.temp_file "e14" ".pages" in
    let wal_path = path ^ ".wal" in
    let sst =
      if mode = "wal" then SS.create_file ~cache_pages:2048 ~wal_path ~shards path
      else SS.create_file ~cache_pages:2048 ~shards path
    in
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
    let t0 = Unix.gettimeofday () in
    let domains =
      List.init conns (fun d ->
          Domain.spawn (fun () ->
              let c = Cl.connect addr in
              let rng = Random.State.make [| 91_000 + (1000 * d) |] in
              let keys = stripe_keys.(d mod 8) in
              let nkeys = Array.length keys in
              let remaining = ref per_conn in
              while !remaining > 0 do
                let n = min depth !remaining in
                let reqs =
                  List.init n (fun _ ->
                      let k = keys.(Random.State.int rng nkeys) in
                      match Random.State.int rng 4 with
                      | 0 -> P.Insert { key = k; value = k }
                      | 1 -> P.Delete { key = k }
                      | _ -> P.Search { key = k })
                in
                ignore (Cl.pipeline_sharded c ~shards reqs);
                remaining := !remaining - n
              done;
              Cl.close c))
    in
    List.iter Domain.join domains;
    let dt = Unix.gettimeofday () -. t0 in
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
          ("mode", J.Str mode);
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
      mode;
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
    List.concat_map
      (fun mode ->
        List.concat_map
          (fun shards -> List.map (run mode shards) conn_counts)
          shard_counts)
      modes
  in
  Report.table
    ~header:
      [
        "mode"; "shards"; "conns"; "tput"; "svc p50"; "svc p99"; "commits";
        "shard acks";
      ]
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
(* E15: hot-key combining — zipf theta x combine mode x durability    *)
(* ------------------------------------------------------------------ *)

let e15 () =
  let module P = Repro_server.Protocol in
  let module Server = Repro_server.Server in
  let module Cl = Repro_client.Client in
  Report.heading
    "E15: hot-key combining — zipf \u{03B8} \u{00D7} combine mode \u{00D7} durability";
  Report.note
    "Cache-fill traffic (insert-if-absent + lookup, 50/50) over a fully \
     preloaded keyspace, keys drawn Zipfian per connection. Every insert \
     is a duplicate, so batch-level dedup can elide repeats behind their \
     in-batch anchor, piggy-back hot searches on already-known outcomes, \
     and — when a whole drained batch turns out to be tree no-ops — skip \
     the durable-ack group commit entirely. off/batch sweep the knob; \
     wal pays a real fsync per acked batch, mem is fire-and-forget.";
  let per_conn = scale 10_000 in
  let key_space = scale 20_000 in
  let workers = 4 in
  let conns = 8 in
  let depth = 64 in
  let thetas =
    if !quick then [ ("uniform", Repro_util.Distribution.Uniform); ("0.99", Repro_util.Distribution.Zipfian 0.99) ]
    else
      [
        ("uniform", Repro_util.Distribution.Uniform);
        ("0.60", Repro_util.Distribution.Zipfian 0.6);
        ("0.90", Repro_util.Distribution.Zipfian 0.9);
        ("0.99", Repro_util.Distribution.Zipfian 0.99);
        ("1.20", Repro_util.Distribution.Zipfian 1.2);
      ]
  in
  let combine_modes = [ "off"; "batch" ] in
  let backends = [ "mem"; "wal" ] in
  (* Sorted (key, value) pairs for the bulk preload: the whole keyspace,
     so the timed inserts are all duplicates (insert-if-absent no-ops). *)
  let preload_full handle =
    let pairs = List.init key_space (fun k -> (k, k)) in
    let bulk_loaded =
      match handle.Tree_intf.bulk_add with Some bulk -> bulk pairs | None -> false
    in
    if not bulk_loaded then begin
      let c = ctx ~slot:0 in
      List.iter (fun (k, v) -> ignore (handle.Tree_intf.insert c k v)) pairs
    end
  in
  let jrows = ref [] in
  let run backend (theta_label, dist_kind) combine =
    Gc.compact ();
    let combine_batch = combine = "batch" in
    let cleanup = ref (fun () -> ()) in
    let handle =
      match backend with
      | "mem" -> (Tree_intf.sagiv ()).Tree_intf.make ~order:16
      | _ ->
          let path = Filename.temp_file "e15" ".pages" in
          let wal_path = path ^ ".wal" in
          let store =
            Tree_intf.Paged_int.create_file ~cache_pages:4096 ~commit_batch:8
              ~commit_interval:5e-4 ~wal_path path
          in
          let t = Tree_intf.Sagiv_disk.create ~order:16 ~store () in
          cleanup :=
            (fun () ->
              (try Tree_intf.Paged_int.close store with _ -> ());
              List.iter
                (fun p -> try Sys.remove p with Sys_error _ -> ())
                [ path; wal_path ]);
          Tree_intf.of_ops
            ~commit:(fun () -> Tree_intf.Sagiv_disk.commit t)
            ~range:(Tree_intf.Sagiv_disk.range t)
            ~bulk_add:(fun ?fill ps -> Tree_intf.Sagiv_disk.bulk_add ?fill t ps)
            ~name:"sagiv-disk"
            (module Tree_intf.Sagiv_disk)
            t
    in
    preload_full handle;
    handle.Tree_intf.commit ();
    let srv =
      Server.start ~workers ~durable_acks:(backend = "wal") ~combine_batch
        ~handle
        ~listen:[ Unix.ADDR_INET (Unix.inet_addr_loopback, 0) ]
        ()
    in
    let addr = List.hd (Server.addresses srv) in
    let t0 = Unix.gettimeofday () in
    let domains =
      List.init conns (fun d ->
          Domain.spawn (fun () ->
              let c = Cl.connect addr in
              let rng = Repro_util.Splitmix.create (95_000 + (1000 * d)) in
              let dist =
                Repro_util.Distribution.create ~space:key_space dist_kind
              in
              let remaining = ref per_conn in
              while !remaining > 0 do
                let n = min depth !remaining in
                let reqs =
                  List.init n (fun _ ->
                      let k = Repro_util.Distribution.sample dist rng in
                      if Repro_util.Splitmix.int rng 2 = 0 then
                        P.Insert { key = k; value = k }
                      else P.Search { key = k })
                in
                ignore (Cl.pipeline c reqs);
                remaining := !remaining - n
              done;
              Cl.close c))
    in
    List.iter Domain.join domains;
    let dt = Unix.gettimeofday () -. t0 in
    let m = Server.stats srv in
    Server.stop srv;
    !cleanup ();
    let tput = float_of_int (conns * per_conn) /. dt in
    let pq p = 1e6 *. Repro_util.Histogram.percentile m.Stats.latency p in
    let p50 = pq 50.0 and p99 = pq 99.0 in
    jrows :=
      J.Obj
        [
          ("backend", J.Str backend);
          ("theta", J.Str theta_label);
          ("combine", J.Str combine);
          ("ops_per_s", J.Float tput);
          ("svc_p50_us", J.Float p50);
          ("svc_p99_us", J.Float p99);
          ("elided", J.Int m.Stats.elided);
          ("piggybacked", J.Int m.Stats.piggybacked);
          ("commits_skipped", J.Int m.Stats.commits_skipped);
          ("acked_commits", J.Int m.Stats.acked_commits);
        ]
      :: !jrows;
    [
      backend;
      theta_label;
      combine;
      Report.fmt_si tput ^ "/s";
      Report.fmt_f p50 ^ "us";
      string_of_int m.Stats.elided;
      string_of_int m.Stats.piggybacked;
      string_of_int m.Stats.commits_skipped;
      string_of_int m.Stats.acked_commits;
    ]
  in
  let rows =
    List.concat_map
      (fun backend ->
        List.concat_map
          (fun theta -> List.map (run backend theta) combine_modes)
          thetas)
      backends
  in
  Report.table
    ~header:
      [
        "backend"; "\u{03B8}"; "combine"; "tput"; "svc p50"; "elided";
        "piggyback"; "skipped"; "commits";
      ]
    rows;
  record_json "E15"
    (J.Obj
       [
         ("per_conn_ops", J.Int per_conn);
         ("key_space", J.Int key_space);
         ("workers", J.Int workers);
         ("conns", J.Int conns);
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
  let module PS = Tree_intf.Paged_int in
  let module Sg = Tree_intf.Sagiv_disk in
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
    let wal_path = path ^ ".wal" in
    let store =
      PS.create_file ~cache_pages:4096 ~commit_batch:8 ~commit_interval:5e-4
        ~wal_path path
    in
    let t = Sg.create ~order:16 ~store () in
    let handle =
      Tree_intf.of_ops
        ~commit:(fun () -> Sg.commit t)
        ~range:(Sg.range t) ~name:"sagiv-disk" (module Sg) t
    in
    let wal_source =
      {
        Server.ws_shards = 1;
        ws_fetch =
          (fun ~shard:_ ~lsn ~max_pages -> PS.wal_fetch store ~lsn ~max_pages);
        ws_wait =
          (fun ~shard:_ ~lsn ~timeout -> PS.wal_wait store ~lsn ~timeout);
      }
    in
    let srv =
      Server.start ~workers:(writers + followers) ~durable_acks:true
        ~wal_source ~handle
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
                      Unix.gettimeofday () -. !t_done
                    else pull ()
              in
              let lag = pull () in
              Cl.close c;
              (r, lag)))
    in
    let t0 = Unix.gettimeofday () in
    let writer_domains =
      List.init writers (fun d ->
          Domain.spawn (fun () ->
              let c = Cl.connect addr in
              let rng = Random.State.make [| 160_000 + (1000 * d) |] in
              let remaining = ref per_writer in
              while !remaining > 0 do
                let n = min depth !remaining in
                let reqs =
                  List.init n (fun _ ->
                      let k = Random.State.int rng key_space in
                      P.Insert { key = k; value = k })
                in
                ignore (Cl.pipeline c reqs);
                remaining := !remaining - n
              done;
              Cl.close c))
    in
    List.iter Domain.join writer_domains;
    let dt = Unix.gettimeofday () -. t0 in
    t_done := Unix.gettimeofday ();
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
          let tr = Unix.gettimeofday () in
          for _ = 1 to reads do
            ignore (R.search r ctx (Random.State.int rng key_space))
          done;
          float_of_int reads /. (Unix.gettimeofday () -. tr)
    in
    let primary_card = handle.Tree_intf.cardinal () in
    (match replicas with
    | (r, _) :: _ when R.cardinal r <> primary_card ->
        failwith
          (Printf.sprintf "E16: replica diverged (%d keys vs %d)"
             (R.cardinal r) primary_card)
    | _ -> ());
    Server.stop srv;
    (try PS.close store with _ -> ());
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ path; wal_path ];
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
                  let t0 = Unix.gettimeofday () in
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
                       (int_of_float (1e6 *. (Unix.gettimeofday () -. t0)))
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
      let t0 = Unix.gettimeofday () in
      let n = List.length (range c ~lo:0 ~hi:space) in
      let dt = Unix.gettimeofday () -. t0 in
      ("sagiv leaf-chain (weak)", n, float_of_int n /. dt)
    in
    let snap =
      let h = (Tree_intf.sagiv_mvcc ()).Tree_intf.make ~order:16 in
      ignore (Driver.preload h ~seed:17 spec);
      let m = Option.get h.Tree_intf.mvcc in
      let c = ctx ~slot:0 in
      let s = m.Tree_intf.snapshot () in
      let t0 = Unix.gettimeofday () in
      let n = List.length (s.Tree_intf.snap_range c ~lo:0 ~hi:space) in
      let dt = Unix.gettimeofday () -. t0 in
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
          Report.note
            (Printf.sprintf
               "verdict %s: worst writer throughput under scans = %.2fx the \
                CPU-equivalent control (idle baseline %s/s) — %s"
               impl.Tree_intf.impl_name worst (Report.fmt_si base)
               (if worst >= 0.8 then "within the 20% acceptance bound"
                else "OUTSIDE the 20% acceptance bound")))
    impls

(* ------------------------------------------------------------------ *)
(* E18: durable MVCC — disk-backed writer throughput under pinned     *)
(* scans, and vrec codec density (v3 varint vs v2 fixed-width)        *)
(* ------------------------------------------------------------------ *)

let e18 () =
  Report.heading
    "E18: durable MVCC — disk backend under pinned scans + vrec codec density";
  Report.note
    "(a) Version chains persisted through the paged store (single and \
     4-shard WAL-backed stores): 4 writer domains run the mixed load \
     while a committer domain drives the durable group-commit cadence \
     (each commit re-serializes the dirty version-chain groups into \
     vrec pages inside the same batch as the tree pages) and N scanner \
     domains loop pin \u{2192} consistent sweep \u{2192} vacuum \u{2192} release. \
     'vs idle' is writer throughput against the 0-scanner baseline of \
     the same durable config — the added cost of scanning + chain \
     persistence churn. (b) prices the vrec page encoding itself: the \
     same group stream framed as a v3 varint vrec page vs the v2 \
     fixed-width layout, in bytes per key.";
  let space = scale 50_000 in
  let preload = space / 2 in
  let ops = scale 15_000 in
  let domains = 4 in
  let spec =
    Workload.spec ~op_mix:Workload.mixed_sid ~key_space:space ~preload ()
  in
  let scanner_counts = if !quick then [ 0; 1 ] else [ 0; 1; 2 ] in
  let impls =
    [ Tree_intf.sagiv_mvcc_disk ~shards:1 (); Tree_intf.sagiv_mvcc_disk ~shards:4 () ]
  in
  let jrows = ref [] in
  let baselines = Hashtbl.create 4 in
  let trials = if !quick then 1 else 3 in
  let rows =
    List.concat_map
      (fun (impl : Tree_intf.impl) ->
        List.map
          (fun scanners ->
            let one_trial () =
              Gc.compact ();
              let h = impl.Tree_intf.make ~order:16 in
              let m =
                match h.Tree_intf.mvcc with
                | Some m -> m
                | None -> failwith "E18 needs an mvcc handle"
              in
              ignore (Driver.preload h ~seed:18 spec);
              h.Tree_intf.commit ();
              let sweeps = Atomic.make 0 in
              let pairs_seen = Atomic.make 0 in
              let commits = Atomic.make 0 in
              let committer ~stop _c =
                (* the durable cadence: chains become crash-safe here *)
                while not (Atomic.get stop) do
                  h.Tree_intf.commit ();
                  Atomic.incr commits;
                  Unix.sleepf 0.002
                done;
                h.Tree_intf.commit ()
              in
              let scanner ~stop c =
                while not (Atomic.get stop) do
                  let s = m.Tree_intf.snapshot () in
                  let pairs = s.Tree_intf.snap_range c ~lo:0 ~hi:space in
                  ignore (m.Tree_intf.vacuum c : int);
                  s.Tree_intf.snap_release ();
                  Atomic.incr sweeps;
                  ignore
                    (Atomic.fetch_and_add pairs_seen (List.length pairs) : int)
                done
              in
              let aux =
                Array.init (1 + scanners) (fun i ->
                    if i = 0 then committer else scanner)
              in
              let r, _aux_stats =
                Driver.run_ops_with_aux h ~domains ~aux ~ops_per_domain:ops
                  ~seed:18 spec
              in
              (r, m.Tree_intf.gauges (), Atomic.get sweeps,
               Atomic.get pairs_seen, Atomic.get commits)
            in
            let runs = List.init trials (fun _ -> one_trial ()) in
            let sorted =
              List.sort
                (fun ((a : Driver.result), _, _, _, _)
                     ((b : Driver.result), _, _, _, _) ->
                  Float.compare a.Driver.throughput b.Driver.throughput)
                runs
            in
            let r, g, sweeps_n, pairs_n, commits_n =
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
            jrows :=
              J.Obj
                [
                  ("impl", J.Str impl.Tree_intf.impl_name);
                  ("scanners", J.Int scanners);
                  ("writer_ops_per_s", J.Float r.Driver.throughput);
                  ("vs_idle", J.Float vs_idle);
                  ("sweeps", J.Int sweeps_n);
                  ("scan_pairs", J.Int pairs_n);
                  ("commits", J.Int commits_n);
                  ("live_versions", J.Int g.Tree_intf.g_live_versions);
                  ("pruned_versions", J.Int g.Tree_intf.g_pruned_versions);
                ]
              :: !jrows;
            [
              impl.Tree_intf.impl_name;
              string_of_int scanners;
              Report.fmt_si r.Driver.throughput ^ "/s";
              (if scanners = 0 then "-" else Report.fmt_f ~digits:3 vs_idle);
              string_of_int sweeps_n;
              string_of_int commits_n;
              string_of_int g.Tree_intf.g_live_versions;
              string_of_int g.Tree_intf.g_pruned_versions;
            ])
          scanner_counts)
      impls
  in
  Report.table
    ~header:
      [
        "impl"; "scanners"; "writer tput"; "vs idle"; "sweeps"; "commits";
        "versions"; "pruned";
      ]
    rows;
  (* (b) vrec codec density: one 64-slot group of version chains,
     framed as the v3 varint vrec page vs the v2 fixed-width layout a
     tree node uses. Epochs and tags are small; payloads are
     word-sized — exactly the mix the varint layout targets. *)
  let module PC = Page_codec.Make (Key.Int) in
  let keys_per_group = 64 in
  let codec_rows, jcodec =
    List.map
      (fun chain_len ->
        let stream =
          List.concat
            [
              [ 0; keys_per_group ];
              List.concat
                (List.init keys_per_group (fun k ->
                     (1 + chain_len)
                     :: List.concat
                          (List.init chain_len (fun v ->
                               [ chain_len - v; 1; (k * 7) + 1 + (v * 1000) ]))));
            ]
        in
        let ptrs = Array.of_list stream in
        let mk level is_root =
          {
            Node.level;
            keys = [||];
            ptrs;
            low = Bound.Neg_inf;
            high = Bound.Pos_inf;
            link = None;
            is_root;
            state = Node.Live;
          }
        in
        let v3 = Bytes.length (PC.to_bytes (mk Node.vrec_level true)) in
        let v2 = Bytes.length (PC.to_bytes (mk 1 false)) in
        let per_key_v3 = float_of_int v3 /. float_of_int keys_per_group in
        let per_key_v2 = float_of_int v2 /. float_of_int keys_per_group in
        ( [
            string_of_int chain_len;
            string_of_int (Array.length ptrs);
            string_of_int v3;
            string_of_int v2;
            Report.fmt_f ~digits:1 per_key_v3;
            Report.fmt_f ~digits:1 per_key_v2;
            Report.fmt_f ~digits:2 (float_of_int v2 /. float_of_int v3);
          ],
          J.Obj
            [
              ("chain_len", J.Int chain_len);
              ("stream_ints", J.Int (Array.length ptrs));
              ("v3_bytes", J.Int v3);
              ("v2_bytes", J.Int v2);
              ("v3_bytes_per_key", J.Float per_key_v3);
              ("v2_bytes_per_key", J.Float per_key_v2);
            ] ))
      [ 1; 4; 16 ]
    |> List.split
  in
  Report.note "(b) vrec codec density (64-key group, bytes on the page):";
  Report.table
    ~header:
      [
        "versions/key"; "stream ints"; "v3 bytes"; "v2 bytes"; "v3 B/key";
        "v2 B/key"; "v2/v3";
      ]
    codec_rows;
  record_json "E18"
    (J.Obj
       [
         ("space", J.Int space);
         ("preload", J.Int preload);
         ("writer_domains", J.Int domains);
         ("ops_per_domain", J.Int ops);
         ("rows", J.List (List.rev !jrows));
         ("codec", J.List jcodec);
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
                    match List.assoc_opt "vs_idle" kvs with
                    | Some (J.Float r) -> Float.min acc r
                    | _ -> acc)
                | _ -> acc)
              1.0 !jrows
          in
          Report.note
            (Printf.sprintf
               "verdict %s: worst durable writer throughput under pinned \
                scans = %.2fx the 0-scanner durable baseline (%s/s)"
               impl.Tree_intf.impl_name worst (Report.fmt_si base)))
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
    ("E9", e9);
    ("E10", e10);
    ("E11", e11);
    ("E12", e12);
    ("E13", e13);
    ("E14", e14);
    ("E15", e15);
    ("E16", e16);
    ("E17", e17);
    ("E18", e18);
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
  Printf.printf "cores available: %d (single-core: scaling rows show overhead, not speedup)\n"
    (Domain.recommended_domain_count ());
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
            ("cores", J.Int (Domain.recommended_domain_count ()));
            ("experiments", J.Obj (List.rev !json_out));
          ]
      in
      let oc = open_out path in
      output_string oc (J.to_string doc);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path
