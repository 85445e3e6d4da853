(* Workload generation, the multi-domain driver and the oracle replay. *)

open Repro_core
open Repro_baseline
open Repro_harness

let test_mix_validation () =
  (match Workload.mix ~search:0.5 ~insert:0.2 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad mix accepted");
  let m = Workload.mix ~search:0.5 ~insert:0.3 ~delete:0.2 () in
  Alcotest.(check string) "label" "S50/I30/D20" (Workload.mix_to_string m)

let test_sampler_respects_mix () =
  let spec = Workload.spec ~op_mix:Workload.search_only ~key_space:100 () in
  let s = Workload.sampler ~seed:1 ~worker:0 spec in
  for _ = 1 to 1000 do
    match Workload.next_op s with
    | Workload.Search _ -> ()
    | _ -> Alcotest.fail "non-search op in search-only mix"
  done;
  let spec = Workload.spec ~op_mix:Workload.mixed_sid ~key_space:100 () in
  let s = Workload.sampler ~seed:1 ~worker:0 spec in
  let counts = [| 0; 0; 0 |] in
  let n = 50_000 in
  for _ = 1 to n do
    match Workload.next_op s with
    | Workload.Search _ -> counts.(0) <- counts.(0) + 1
    | Workload.Insert _ -> counts.(1) <- counts.(1) + 1
    | Workload.Delete _ -> counts.(2) <- counts.(2) + 1
  done;
  let frac i = float_of_int counts.(i) /. float_of_int n in
  Alcotest.(check bool) "search ~50%" true (abs_float (frac 0 -. 0.5) < 0.02);
  Alcotest.(check bool) "insert ~30%" true (abs_float (frac 1 -. 0.3) < 0.02);
  Alcotest.(check bool) "delete ~20%" true (abs_float (frac 2 -. 0.2) < 0.02)

let test_sampler_deterministic () =
  let spec = Workload.spec ~key_space:1000 () in
  let a = Workload.sampler ~seed:9 ~worker:3 spec in
  let b = Workload.sampler ~seed:9 ~worker:3 spec in
  for _ = 1 to 100 do
    if Workload.next_op a <> Workload.next_op b then Alcotest.fail "nondeterministic"
  done

let test_preload_keys_distinct () =
  let spec = Workload.spec ~key_space:10_000 ~preload:5_000 () in
  let keys = Workload.preload_keys ~seed:7 spec in
  Alcotest.(check int) "count" 5_000 (Array.length keys);
  let tbl = Hashtbl.create 5000 in
  Array.iter
    (fun k ->
      if Hashtbl.mem tbl k then Alcotest.failf "duplicate preload key %d" k;
      Hashtbl.replace tbl k ())
    keys

let test_latency_measurement () =
  let h = Tree_intf.((sagiv ()).make ~order:8) in
  let spec = Workload.spec ~key_space:5_000 ~preload:1_000 () in
  ignore (Driver.preload h ~seed:3 spec);
  let r = Driver.run_ops ~measure_latency:true h ~domains:2 ~ops_per_domain:2_000 ~seed:3 spec in
  match r.Driver.latency with
  | None -> Alcotest.fail "latency histogram missing"
  | Some hist ->
      Alcotest.(check int) "one sample per op" 4_000 (Repro_util.Histogram.count hist);
      let p50 = Repro_util.Histogram.percentile hist 50.0 in
      Alcotest.(check bool) "p50 positive and sane" true (p50 > 0.0 && p50 < 1.0);
      Alcotest.(check bool) "p99 >= p50" true
        (Repro_util.Histogram.percentile hist 99.0 >= p50)

let test_driver_runs_all_ops () =
  let h = Tree_intf.((sagiv ()).make ~order:8) in
  let spec = Workload.spec ~op_mix:Workload.balanced ~key_space:10_000 ~preload:2_000 () in
  let preloaded = Driver.preload h ~seed:3 spec in
  Alcotest.(check int) "preload count" 2_000 preloaded;
  let r = Driver.run_ops h ~domains:4 ~ops_per_domain:5_000 ~seed:3 spec in
  Alcotest.(check int) "total ops" 20_000 r.Driver.total_ops;
  Alcotest.(check bool) "throughput positive" true (r.Driver.throughput > 0.0);
  Alcotest.(check int) "per-domain stats" 4 (Array.length r.Driver.per_domain)

let test_driver_with_compaction () =
  let raw, h = Tree_intf.sagiv_raw ~enqueue_on_delete:true ~order:8 () in
  let spec =
    Workload.spec ~op_mix:Workload.delete_heavy ~key_space:20_000 ~preload:20_000 ()
  in
  ignore (Driver.preload h ~seed:11 spec);
  let r, comp_stats =
    Driver.run_ops_with_compaction raw h ~domains:3 ~compactors:2 ~ops_per_domain:10_000
      ~seed:11 spec
  in
  Alcotest.(check int) "ops done" 30_000 r.Driver.total_ops;
  Alcotest.(check bool) "compactors merged something" true
    (comp_stats.Repro_storage.Stats.merges > 0);
  (* tree still valid afterwards *)
  let module V = Validate.Make (Repro_storage.Key.Int) in
  let rep = V.check raw in
  if not (Validate.ok rep) then
    Alcotest.failf "invalid: %s" (String.concat "; " rep.Validate.errors)

let test_oracle_replay_detects_divergence () =
  (* A deliberately broken handle must be caught. *)
  let h = Tree_intf.((sagiv ()).make ~order:4) in
  let broken = { h with Tree_intf.search = (fun _ _ -> Some 42) } in
  let c = Handle.ctx ~slot:0 in
  let ops = [ Workload.Insert (1, 2); Workload.Search 3 ] in
  let div, _ = Oracle.replay broken c ops in
  Alcotest.(check bool) "divergence found" true (div <> None)

let test_oracle_replay_clean () =
  let h = Tree_intf.((sagiv ()).make ~order:4) in
  let c = Handle.ctx ~slot:0 in
  let rng = Repro_util.Splitmix.create 5 in
  let ops =
    List.init 5_000 (fun _ ->
        let k = Repro_util.Splitmix.int rng 500 in
        match Repro_util.Splitmix.int rng 3 with
        | 0 -> Workload.Insert (k, k)
        | 1 -> Workload.Delete k
        | _ -> Workload.Search k)
  in
  let div, model = Oracle.replay h c ops in
  (match div with
  | Some d -> Alcotest.failf "diverged at %d on %s" d.Oracle.index (Oracle.string_of_op d.Oracle.op)
  | None -> ());
  Alcotest.(check int) "model cardinality" (Oracle.IntMap.cardinal model)
    (h.Tree_intf.cardinal ())

let suite =
  [
    Alcotest.test_case "mix validation" `Quick test_mix_validation;
    Alcotest.test_case "sampler respects mix" `Quick test_sampler_respects_mix;
    Alcotest.test_case "sampler deterministic" `Quick test_sampler_deterministic;
    Alcotest.test_case "preload keys distinct" `Quick test_preload_keys_distinct;
    Alcotest.test_case "latency measurement" `Quick test_latency_measurement;
    Alcotest.test_case "driver runs all ops" `Quick test_driver_runs_all_ops;
    Alcotest.test_case "driver with compaction workers" `Quick test_driver_with_compaction;
    Alcotest.test_case "oracle detects divergence" `Quick test_oracle_replay_detects_divergence;
    Alcotest.test_case "oracle replay clean" `Quick test_oracle_replay_clean;
  ]
