(* The benchmark program: one workload at one seed, end to end through the
   served, WAL-backed store (--trace 0) or as a traced layer ladder
   (--trace 1). Prints human-readable lines, then one JSON result line.
   See README.md for the workloads and the metric map. *)

module P = Repro_server.Protocol
module TI = Repro_baseline.Tree_intf
module SS = TI.Sharded_int
module PS = TI.Paged_int
module Server = Repro_server.Server
module Client = Repro_client.Client
module Stats = Repro_storage.Stats
module Histogram = Repro_util.Histogram
open Stream

(* serve's defaults: order 16, 4096-page decoded-node cache, one shard *)
let order = 16
let now = Spans.now

(* -- failures: every response is checked against the model -- *)

let attempted = ref 0
let failed = ref 0
let mismatches = ref 0

let check m (req : P.request) (got : P.response) =
  incr attempted;
  let want = expect m req in
  if got <> want then begin
    incr failed;
    (match got with P.Error _ -> () | _ -> incr mismatches);
    if !failed <= 5 then
      Printf.eprintf "MISMATCH %s: got %s, expected %s\n%!"
        (Format.asprintf "%a" P.pp_request req)
        (P.response_to_string got) (P.response_to_string want)
  end

(* -- the store: built as `serve --backend disk --durability wal --path`
   builds it, over anonymous tmpfs files -- *)

external memfd_create : string -> int = "perfbench_memfd_create"
external close_fd : int -> unit = "perfbench_close"

type store = {
  sst : SS.t;
  h : TI.handle;
  data_path : string;
  checkpoint : unit -> unit;  (** quiescent checkpoint (MVCC chains too) *)
  mvcc_io : unit -> Stats.io;  (** version gauges; zeros without MVCC *)
  links : string list;
  fds : int list;
}

let unlink p = try Unix.unlink p with Unix.Unix_error _ -> ()

(* Make [link] name a fresh memfd: the store opens its files by path,
   and this keeps those files on tmpfs without writing outside the
   benchmark's directory. *)
let memfd_at link =
  let fd = memfd_create (Filename.basename link) in
  unlink link;
  Unix.symlink (Printf.sprintf "/proc/self/fd/%d" fd) link;
  fd

let make_store spec ~dir ~tag =
  let base = Filename.concat dir (Printf.sprintf "%s-%d.db" tag (Unix.getpid ())) in
  let wal = base ^ ".wal" in
  let data_path = SS.shard_path base 0 and wal_file = SS.shard_path wal 0 in
  let fds = [ memfd_at data_path; memfd_at wal_file ] in
  let sst = SS.create_file ~wal_path:wal ~shards:1 base in
  let h, checkpoint, mvcc_io =
    if spec.mvcc then
      let trees, h = TI.sagiv_mvcc_disk_on ~enqueue_on_delete:false ~order sst in
      (h, (fun () -> TI.Mvcc_disk.flush trees.(0)), fun () -> TI.Mvcc_disk.io_stats trees.(0))
    else
      ( snd (TI.sagiv_disk_sharded_on ~enqueue_on_delete:false ~order sst),
        (fun () -> SS.sync_all sst),
        Stats.io_create )
  in
  { sst; h; data_path; checkpoint; mvcc_io; links = [ data_path; wal_file ]; fds }

let bulk_load (h : TI.handle) pairs =
  match h.bulk_add with
  | Some bulk when bulk pairs -> ()
  | _ -> failwith "bulk load refused"

let drop_store st =
  List.iter unlink st.links;
  List.iter close_fd st.fds

let file_size p = (Unix.stat p).Unix.st_size

(* -- output -- *)

let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics

(* A metric with no value (no samples, or a division by zero) fails the
   run rather than print a number that was not measured. *)
let print_result ~correct =
  List.iter
    (fun (n, v, _) ->
      if not (Float.is_finite v) then begin
        Printf.eprintf "FAILED: metric %s has no value (%g)\n%!" n v;
        exit 1
      end)
    !metrics;
  let ms =
    List.rev_map
      (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
      !metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed (String.concat ", " ms)

(* -- served path (R4): server + one pipelined client -- *)

type served = { st : store; srv : Server.t; cl : Client.t; sock : string }

let serve spec ~dir ~tag pairs =
  let st = make_store spec ~dir ~tag in
  bulk_load st.h pairs;
  st.checkpoint ();
  let sock = Filename.concat dir (Printf.sprintf "%s-%d.sock" tag (Unix.getpid ())) in
  unlink sock;
  let srv =
    Server.start ~workers:1 ~durable_acks:true ~handle:st.h
      ~listen:[ Unix.ADDR_UNIX sock ] ()
  in
  let cl = Client.connect (Unix.ADDR_UNIX sock) in
  { st; srv; cl; sock }

(* stop the server, commit, final checkpoint; returns data-file bytes and
   the final cardinality *)
let shutdown s m =
  Client.close s.cl;
  Server.stop s.srv;
  unlink s.sock;
  s.st.h.commit ();
  let card = s.st.h.cardinal () in
  if card <> m.live then begin
    incr failed;
    incr mismatches;
    Printf.eprintf "MISMATCH final cardinality %d, model %d\n%!" card m.live
  end;
  SS.close s.st.sst;
  let bytes = file_size s.st.data_path in
  drop_store s.st;
  (bytes, card)

let send s m (reqs : P.request array) =
  let resps = Client.pipeline s.cl (Array.to_list reqs) in
  List.iteri (fun i r -> check m reqs.(i) r) resps

let mutations reqs =
  Array.fold_left (fun n r -> if is_mutation r then n + 1 else n) 0 reqs

let log_page_bytes st =
  Repro_storage.Wal.log_page_size ~data_page_size:(PS.page_size (SS.store st.sst 0))

(* Counters over the fixed-work prefix: exact at a fixed seed. *)
type counts = {
  c_wal_records : int;
  c_wal_fsyncs : int;
  c_faults : int;
  c_commit_groups : int;
  c_mutations : int;
  c_versions : int;
  c_vrec_pages : int;
}

let count_phase s g m =
  let io0 = SS.io_stats s.st.sst in
  let muts = ref 0 in
  for _ = 1 to g.spec.count_batches do
    let _, reqs = next_batch g in
    muts := !muts + mutations reqs;
    send s m reqs
  done;
  let io1 = SS.io_stats s.st.sst and mv = s.st.mvcc_io () in
  {
    c_wal_records = io1.wal_records - io0.wal_records;
    c_wal_fsyncs = io1.wal_fsyncs - io0.wal_fsyncs;
    c_faults = io1.faults - io0.faults;
    c_commit_groups = io1.commit_groups - io0.commit_groups;
    c_mutations = !muts;
    c_versions = mv.mvcc_versions;
    c_vrec_pages = mv.mvcc_disk_pages;
  }

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Host CPU steal: the "cpu" line of /proc/stat gives (steal, total)
   ticks summed over all CPUs; None where it cannot be read. *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields when List.length fields >= 8 ->
          let v = List.filteri (fun i _ -> i < 8) (List.map int_of_string fields) in
          Some (List.nth v 7, List.fold_left ( + ) 0 v)
      | _ -> None)

(* share of the CPU time between two readings that the host stole *)
let steal_share a b =
  match (a, b) with
  | Some (s0, t0), Some (s1, t1) when t1 > t0 -> float_of_int (s1 - s0) /. float_of_int (t1 - t0)
  | _ -> 0.

(* -- end-to-end run -- *)

let setup_reps = 3

(* Short windows, a fifth of a second at the reference rate: a window the
   host stole from is then a small slice of the run, and the windows left
   out are spread over it. *)
let windows = 100

(* The timed phase is a fixed amount of work, [batch_rate * seconds]
   batches: the store's state at every point of it (versions, log length,
   cache contents) is then the same on every run at a seed, which a
   workload whose versions grow through the run needs for its windows to
   compare like with like. *)
let timed_batches spec ~seconds =
  max windows (int_of_float (float_of_int spec.batch_rate *. seconds))

(* A window whose host steal share exceeds this is left out of the timed
   metrics, as long as half of the windows remain. At a fifth of a second
   on two CPUs one stolen tick is 2.5%, so a kept window had none. *)
let steal_max = 0.01

let e2e spec ~seed ~seconds ~dir =
  let keys = initial_keys spec ~seed in
  let pairs = Array.to_list (Array.map (fun k -> (k, initial_value k)) keys) in
  let setups = Samples.create () in
  let first = ref None and count_bytes = ref None in
  let total = timed_batches spec ~seconds in
  let lat = Array.init windows (fun _ -> [| Samples.create (); Samples.create (); Samples.create () |]) in
  let kidx = function Read -> 0 | Write -> 1 | Scan -> 2 in
  let ops = Array.make windows 0 and elapsed = Array.make windows 0. in
  let steal = Array.make windows 0. in
  let heap = ref nan and data_bytes_per_key = ref nan and wal_bytes_per_write = ref nan in
  let done_windows = ref 0 in
  for rep = 1 to setup_reps do
    (* the previous setup's garbage must not pace this one's collector *)
    Gc.full_major ();
    let t0 = now () in
    let s = serve spec ~dir ~tag:"e2e" pairs in
    Samples.push setups (now () - t0);
    let m = model spec keys in
    let g = generator spec ~seed in
    let c = count_phase s g m in
    (match !first with
    | None -> first := Some c
    | Some c0 ->
        if c <> c0 then begin
          incr failed;
          Printf.eprintf "COUNT MISMATCH: fixed-work counters differ between setups\n%!"
        end);
    if rep < setup_reps then begin
      let bytes, _ = shutdown s m in
      match !count_bytes with
      | None -> count_bytes := Some bytes
      | Some b ->
          if bytes <> b then begin
            incr failed;
            Printf.eprintf "COUNT MISMATCH: data-file bytes %d vs %d\n%!" bytes b
          end
    end
    else begin
      (* timed phase: the closed loop continues the same stream, in
         [windows] windows of equal batch counts. A run several times
         slower than its reference rate stops early, on a window boundary,
         to stay within its time limit, and then fails: every run that
         reports has done the same work, so its byte counts are exact. *)
      let give_up = now () + int_of_float (4. *. seconds *. 1e9) in
      let io0 = SS.io_stats s.st.sst in
      let muts = ref 0 in
      for w = 0 to windows - 1 do
        let n =
          if now () > give_up then 0 else (total * (w + 1) / windows) - (total * w / windows)
        in
        let ticks0 = cpu_ticks () in
        let t_start = now () in
        for _ = 1 to n do
          let kind, reqs = next_batch g in
          let batch = Array.to_list reqs in
          let b0 = now () in
          let resps = Client.pipeline s.cl batch in
          Samples.push lat.(w).(kidx kind) (now () - b0);
          ops.(w) <- ops.(w) + depth;
          muts := !muts + mutations reqs;
          List.iteri (fun i r -> check m reqs.(i) r) resps
        done;
        elapsed.(w) <- float_of_int (now () - t_start) /. 1e9;
        steal.(w) <- steal_share ticks0 (cpu_ticks ());
        if n > 0 then incr done_windows
      done;
      let io1 = SS.io_stats s.st.sst in
      wal_bytes_per_write :=
        float_of_int ((io1.wal_records - io0.wal_records) * log_page_bytes s.st)
        /. float_of_int !muts;
      (* before the shutdown checkpoint, which seals the whole log pass
         into a retained in-memory segment *)
      heap := heap_mb ();
      let bytes, card = shutdown s m in
      data_bytes_per_key := float_of_int bytes /. float_of_int card
    end
  done;
  let c = Option.get !first in
  Printf.printf
    "counts (first %d batches, identical across %d setups): wal_records=%d \
     wal_fsyncs=%d commit_groups=%d faults=%d mutations=%d versions=%d \
     vrec_pages=%d\n"
    spec.count_batches setup_reps c.c_wal_records c.c_wal_fsyncs
    c.c_commit_groups c.c_faults c.c_mutations c.c_versions c.c_vrec_pages;
  let nw = !done_windows in
  if nw < windows then begin
    Printf.eprintf "FAILED: timed phase stopped after %d of %d windows (over 4x --seconds)\n%!"
      nw windows;
    exit 1
  end;
  (* Windows the host stole more than [steal_max] of the CPU from are
     left out. When fewer than half of the windows are that clean, the
     least stolen half is kept, with every window tied with the last of
     it, so that ties do not favour one end of the run. *)
  let sorted = Array.copy steal in
  Array.sort compare sorted;
  let cut = Float.max steal_max sorted.((windows / 2) - 1) in
  let kept = List.filter (fun w -> steal.(w) <= cut) (List.init windows Fun.id) in
  let total_of f = List.fold_left (fun a w -> a +. f w) 0. kept in
  let by_window f = String.concat " " (List.init windows f) in
  Printf.printf "steal %% by window: %s\n" (by_window (fun w -> Printf.sprintf "%.1f" (100. *. steal.(w))));
  Printf.printf "steal: %.2f%% of CPU over the timed phase; %d of %d windows kept (steal <= %.1f%%)\n"
    (100. *. Array.fold_left ( +. ) 0. (Array.mapi (fun w x -> x *. elapsed.(w)) steal)
    /. Array.fold_left ( +. ) 0. elapsed)
    (List.length kept) windows (100. *. cut);
  (* Each timed metric pools the kept windows: acked requests over their
     time, and the percentiles of every batch in them. *)
  Printf.printf "ops_per_s by window: %s\n"
    (by_window (fun w -> Printf.sprintf "%.0f" (float_of_int ops.(w) /. elapsed.(w))));
  metric "ops_per_s" "1/s" (total_of (fun w -> float_of_int ops.(w)) /. total_of (fun w -> elapsed.(w)));
  List.iter
    (fun k ->
      let i = kidx k in
      let pooled = Samples.create () in
      List.iter (fun w -> Samples.append pooled lat.(w).(i)) kept;
      metric (kind_name k ^ "_p50_us") "us" (Samples.percentile pooled 0.50 /. 1e3);
      metric (kind_name k ^ "_p95_us") "us" (Samples.percentile pooled 0.95 /. 1e3);
      Printf.printf "%s: %d batches in the kept windows; p95 us by window: %s\n" (kind_name k)
        (Samples.count pooled)
        (by_window (fun w -> Printf.sprintf "%.0f" (Samples.percentile lat.(w).(i) 0.95 /. 1e3))))
    [ Read; Write; Scan ];
  metric "setup_s" "s" (Samples.percentile setups 0.5 /. 1e9);
  metric "data_bytes_per_key" "B" !data_bytes_per_key;
  metric "wal_bytes_per_write" "B" !wal_bytes_per_write;
  metric "peak_heap_mb" "MB" !heap;
  Printf.printf "timed phase: %d batches, %d ops in %.3f s (%d windows); setups: %d\n" total
    (Array.fold_left ( + ) 0 ops) (Array.fold_left ( +. ) 0. elapsed) windows setup_reps

(* -- traced ladder run -- *)

(* Replay recorded batches straight into a handle (R1-R3), one span per
   layer call; [commit] adds the WAL group commit per write batch. *)
let replay sp ~rung (h : TI.handle) batches m ~commit =
  let nm s = Spans.name sp (rung ^ "." ^ s) in
  let n_batch = nm "batch" and n_search = nm "search" and n_insert = nm "insert"
  and n_delete = nm "delete" and n_range = nm "range" and n_snap = nm "snapshot"
  and n_commit = nm "commit" in
  let ctx = Repro_core.Handle.ctx ~slot:0 in
  let pairs = ref 0 in
  let exec (r : P.request) : P.response =
    match r with
    | Search { key } ->
        Spans.enter sp n_search;
        let v = h.search ctx key in
        Spans.leave sp;
        (match v with Some v -> Found v | None -> Absent)
    | Insert { key; value } ->
        Spans.enter sp n_insert;
        let v = h.insert ctx key value in
        Spans.leave sp;
        (match v with `Ok -> Inserted | `Duplicate -> Duplicate)
    | Delete { key } ->
        Spans.enter sp n_delete;
        let v = h.delete ctx key in
        Spans.leave sp;
        if v then Deleted else Absent
    | Range { lo; hi } ->
        let ps =
          match h.mvcc with
          | Some mv ->
              (* a per-request snapshot cut, as the server takes one *)
              Spans.enter sp n_snap;
              let s = mv.snapshot () in
              Spans.leave sp;
              Spans.enter sp n_range;
              let ps = s.snap_range ctx ~lo ~hi in
              Spans.leave sp;
              s.snap_release ();
              ps
          | None ->
              Spans.enter sp n_range;
              let ps = (Option.get h.range) ctx ~lo ~hi in
              Spans.leave sp;
              ps
        in
        pairs := !pairs + List.length ps;
        Pairs ps
    | _ -> invalid_arg "replay"
  in
  Array.iteri
    (fun b (kind, reqs) ->
      Spans.set_batch sp b;
      Spans.enter sp n_batch;
      let resps = Array.map exec reqs in
      if commit && kind = Write then begin
        Spans.enter sp n_commit;
        h.commit ();
        Spans.leave sp
      end;
      Spans.leave sp;
      Array.iteri (fun i r -> check m r resps.(i)) reqs)
    batches;
  (ctx.stats, !pairs)

(* Mean encoded size of the tree pages in a checkpointed data file: the
   codec frame's body length plus framing, over every node page. *)
let codec_bytes_per_page path ~page_size =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let buf = Bytes.create page_size in
  let pages = ref 0 and bytes = ref 0 in
  (* pages 0 and 1 are the header slots *)
  let p = ref 2 in
  while (!p + 1) * page_size <= len do
    seek_in ic (!p * page_size);
    really_input ic buf 0 page_size;
    if Bytes.get_uint8 buf 0 = Repro_storage.Page_codec.magic then begin
      incr pages;
      bytes :=
        !bytes + Repro_storage.Page_codec.frame_bytes
        + Int32.to_int (Bytes.get_int32_le buf 2)
    end;
    incr p
  done;
  close_in ic;
  float_of_int !bytes /. float_of_int (max 1 !pages)

(* What one paged rung (R2, R3) leaves behind for the metrics. *)
type paged_run = {
  sp : Spans.t;
  io0 : Stats.io;  (** store counters before the replay *)
  io1 : Stats.io;  (** and after *)
  pool0 : Repro_storage.Buffer_pool.stats;
  pool1 : Repro_storage.Buffer_pool.stats;
  mv : Stats.io;  (** MVCC gauges after the replay *)
  card : int;
  codec : float;  (** encoded bytes per tree page after the checkpoint *)
  log_bytes : int;  (** bytes per WAL record *)
  pairs_read : int;  (** range pairs returned *)
}

let trace spec ~seed ~seconds ~dir =
  let keys = initial_keys spec ~seed in
  let pairs = Array.to_list (Array.map (fun k -> (k, initial_value k)) keys) in
  (* R4: the served path, traced over a quarter of the run's batches,
     which R4 untraced and R1-R3 then replay *)
  let quarter = timed_batches spec ~seconds:(seconds /. 4.) in
  let sp4 = Spans.create () in
  let n_rtt = Spans.name sp4 "r4.batch" and n_enc = Spans.name sp4 "protocol.encode"
  and n_dec = Spans.name sp4 "protocol.decode" in
  let s = serve spec ~dir ~tag:"r4" pairs in
  let m = model spec keys in
  let g = generator spec ~seed in
  let recorded = ref [] and nb = ref 0 in
  let write_batches = ref 0 in
  let enc = Buffer.create 4096 and rbuf = Buffer.create 65536 in
  let t0 = now () in
  while !nb < quarter do
    let kind, reqs = next_batch g in
    Spans.set_batch sp4 !nb;
    Spans.enter sp4 n_rtt;
    let resps = Client.pipeline s.cl (Array.to_list reqs) in
    Spans.leave sp4;
    List.iteri (fun i r -> check m reqs.(i) r) resps;
    (* the protocol layer alone, on this batch's own frames *)
    Buffer.clear enc;
    Spans.enter sp4 n_enc;
    Array.iteri (fun i r -> P.encode_request enc ~seq:i r) reqs;
    Spans.leave sp4;
    Buffer.clear rbuf;
    List.iteri (fun i r -> P.encode_response rbuf ~seq:i r) resps;
    let rb = Buffer.to_bytes rbuf in
    Spans.enter sp4 n_dec;
    let pos = ref 0 in
    while !pos < Bytes.length rb do
      match P.decode_response rb ~pos:!pos ~len:(Bytes.length rb - !pos) with
      | Frame { consumed; _ } -> pos := !pos + consumed
      | Need_more -> failwith "truncated response frame"
    done;
    Spans.leave sp4;
    if kind = Write then incr write_batches;
    recorded := (kind, reqs) :: !recorded;
    incr nb
  done;
  let traced_s = float_of_int (now () - t0) /. 1e9 in
  let batches = Array.of_list (List.rev !recorded) in
  let nops = float_of_int (Array.length batches * depth) in
  let sv = Server.stats s.srv in
  let io_r4 = SS.io_stats s.st.sst in
  ignore (shutdown s m);
  (* R4 untraced, for the tracing overhead: the same batches from the same
     bulk-loaded start *)
  let su = serve spec ~dir ~tag:"r4u" pairs in
  let mu = model spec keys in
  let t1 = now () in
  Array.iter (fun (_, reqs) -> send su mu reqs) batches;
  let untraced_s = float_of_int (now () - t1) /. 1e9 in
  ignore (shutdown su mu);
  (* R1: Sagiv over the in-memory Store *)
  let sp1 = Spans.create () in
  let h1 = (if spec.mvcc then TI.sagiv_mvcc () else TI.sagiv ()).make ~order in
  bulk_load h1 pairs;
  let st1, _ = replay sp1 ~rung:"r1" h1 batches (model spec keys) ~commit:false in
  (* R2: the same tree over Paged_store, file-backed; R3: plus commit *)
  let paged ~rung ~commit =
    let sp = Spans.create () in
    let st = make_store spec ~dir ~tag:rung in
    bulk_load st.h pairs;
    st.checkpoint ();
    let store = SS.store st.sst 0 in
    let io0 = SS.io_stats st.sst and pool0 = PS.pool_stats store in
    let _, pairs_read = replay sp ~rung st.h batches (model spec keys) ~commit in
    let io1 = SS.io_stats st.sst and pool1 = PS.pool_stats store in
    let mv = st.mvcc_io () in
    let card = st.h.cardinal () in
    let page_size = PS.page_size store in
    let log_bytes = log_page_bytes st in
    SS.close st.sst;
    let codec = codec_bytes_per_page st.data_path ~page_size in
    drop_store st;
    { sp; io0; io1; pool0; pool1; mv; card; codec; log_bytes; pairs_read }
  in
  let r2 = paged ~rung:"r2" ~commit:false and r3 = paged ~rung:"r3" ~commit:true in
  let sp2 = r2.sp and sp3 = r3.sp in
  (* spans out *)
  let path = Filename.concat dir (Printf.sprintf "spans-%s-%d.csv" spec.name seed) in
  let oc = open_out path in
  output_string oc Spans.csv_header;
  List.iter (fun (r, sp) -> Spans.write sp oc ~rung:r)
    [ ("r4", sp4); ("r1", sp1); ("r2", sp2); ("r3", sp3) ];
  close_out oc;
  (* per-layer metrics *)
  let per_op x = float_of_int x /. nops in
  let nb = float_of_int (Array.length batches) in
  metric "protocol.encode_ns_per_req" "ns" (float_of_int (Spans.total sp4 "protocol.encode") /. nops);
  metric "protocol.decode_ns_per_resp" "ns" (float_of_int (Spans.total sp4 "protocol.decode") /. nops);
  let frames = float_of_int sv.frames_in in
  metric "server.bytes_per_op" "B" (float_of_int (sv.bytes_in + sv.bytes_out) /. frames);
  metric "server.service_p50_us" "us" (Histogram.percentile sv.latency 50.0 *. 1e6);
  metric "server.service_p95_us" "us" (Histogram.percentile sv.latency 95.0 *. 1e6);
  let service_us = Histogram.mean sv.latency *. float_of_int (Histogram.count sv.latency) *. 1e6 in
  metric "server.wait_us_per_batch" "us"
    ((float_of_int (Spans.total sp4 "r4.batch") /. 1e3 -. service_us) /. nb);
  metric "server.commits_per_write_batch" "count"
    (float_of_int sv.acked_commits /. float_of_int (max 1 !write_batches));
  let n_writes = Spans.count sp1 "r1.insert" + Spans.count sp1 "r1.delete" in
  metric "sagiv.search_ns" "ns" (Spans.mean sp1 "r1.search");
  metric "sagiv.insert_ns" "ns" (Spans.mean sp1 "r1.insert");
  metric "sagiv.delete_ns" "ns" (Spans.mean sp1 "r1.delete");
  metric "sagiv.link_follows_per_op" "count" (per_op st1.link_follows);
  metric "sagiv.restarts_per_op" "count" (per_op st1.restarts);
  metric "sagiv.splits_per_op" "count" (per_op st1.splits);
  metric "sagiv.locks_per_write" "count"
    (float_of_int st1.lock_acquisitions /. float_of_int (max 1 n_writes));
  metric "paged_store.search_ns" "ns" (Spans.mean sp2 "r2.search" -. Spans.mean sp1 "r1.search");
  metric "paged_store.faults_per_op" "count" (per_op (r2.io1.faults - r2.io0.faults));
  metric "paged_store.fault_stall_us_per_op" "us"
    ((r2.io1.fault_stall_s -. r2.io0.fault_stall_s) *. 1e6 /. nops);
  let hits = r2.pool1.hits - r2.pool0.hits and misses = r2.pool1.misses - r2.pool0.misses in
  metric "buffer_pool.hit_ratio" "ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
  metric "buffer_pool.evictions_per_op" "count" (per_op (r2.pool1.evictions - r2.pool0.evictions));
  metric "paged_store.writebacks_per_op" "count"
    (per_op
       (r2.io1.inline_writebacks + r2.io1.queued_writebacks - r2.io0.inline_writebacks
      - r2.io0.queued_writebacks));
  metric "page_codec.bytes_per_page" "B" r3.codec;
  let commits = r3.io1.commit_groups - r3.io0.commit_groups in
  let records = r3.io1.wal_records - r3.io0.wal_records in
  metric "wal.commit_us" "us" (Spans.percentile sp3 "r3.commit" 0.5 /. 1e3);
  metric "wal.records_per_commit" "count" (float_of_int records /. float_of_int (max 1 commits));
  metric "wal.bytes_per_commit" "B" (float_of_int (records * r3.log_bytes) /. float_of_int (max 1 commits));
  metric "wal.fsyncs_per_commit" "count"
    (float_of_int (r3.io1.wal_fsyncs - r3.io0.wal_fsyncs)
    /. float_of_int (max 1 (r3.io1.commit_reqs - r3.io0.commit_reqs)));
  (* Mvcc/Record_store: the durable MVCC store at R2 (R3 for what the
     commits persist); zero on workloads that do not run MVCC *)
  let mv x = if spec.mvcc then x else 0. in
  metric "mvcc.snapshot_us" "us" (mv (Spans.mean sp2 "r2.snapshot" /. 1e3));
  metric "mvcc.range_ns_per_pair" "ns"
    (mv (float_of_int (Spans.total sp2 "r2.range") /. float_of_int (max 1 r2.pairs_read)));
  metric "mvcc.write_ns" "ns"
    (mv
       (float_of_int (Spans.total sp2 "r2.insert" + Spans.total sp2 "r2.delete")
       /. float_of_int (max 1 (Spans.count sp2 "r2.insert" + Spans.count sp2 "r2.delete"))));
  metric "mvcc.versions_per_key" "count"
    (mv (float_of_int r3.mv.mvcc_versions /. float_of_int (max 1 r3.card)));
  metric "mvcc.vrec_pages" "count" (mv (float_of_int r3.mv.mvcc_disk_pages));
  (* the ladder: each rung's time per op over the same batches *)
  let rung_ns sp r = float_of_int (Spans.total sp (r ^ ".batch")) /. nops in
  let rungs = [ ("r1", sp1); ("r2", sp2); ("r3", sp3); ("r4", sp4) ] in
  let traced_ops_s = nops /. traced_s
  and untraced_ops_s = nops /. untraced_s in
  List.iter (fun (r, sp) -> metric ("ladder." ^ r ^ "_ns_per_op") "ns" (rung_ns sp r)) rungs;
  metric "trace.overhead_pct" "%" ((untraced_ops_s -. traced_ops_s) /. untraced_ops_s *. 100.);
  Printf.printf "ladder (%d batches x %d ops, same stream on every rung):\n"
    (Array.length batches) depth;
  Printf.printf "  %-4s %-44s %12s %12s %14s\n" "rung" "layer" "ns/op" "marginal" "self ns/op";
  let prev = ref 0. in
  List.iter
    (fun ((r, sp), layer) ->
      let v = rung_ns sp r in
      Printf.printf "  %-4s %-44s %12.1f %12.1f %14.1f\n" r layer v (v -. !prev)
        (float_of_int (Spans.self sp (r ^ ".batch")) /. nops);
      prev := v)
    (List.combine rungs
       [
         (if spec.mvcc then "Sagiv+Mvcc over in-memory Store" else "Sagiv over in-memory Store");
         "+ Paged_store/Buffer_pool/Page_codec (file)";
         "+ Wal group commit per write batch";
         "+ Protocol/Client/Server (served, durable acks)";
       ]);
  Printf.printf "  span self time (ns/op over all ops of the rung):\n";
  List.iter
    (fun (r, sp) ->
      List.iter
        (fun n ->
          let full = r ^ "." ^ n in
          if Spans.count sp full > 0 then
            Printf.printf "    %-14s n=%-8d self=%.1f\n" full (Spans.count sp full)
              (float_of_int (Spans.self sp full) /. nops))
        [ "batch"; "search"; "insert"; "delete"; "snapshot"; "range"; "commit" ])
    rungs;
  Printf.printf "tracing overhead: traced %.0f ops/s vs untraced %.0f ops/s\n"
    traced_ops_s untraced_ops_s;
  Printf.printf "r4 io: faults=%d wal_records=%d wal_fsyncs=%d\n" io_r4.faults
    io_r4.wal_records io_r4.wal_fsyncs;
  Printf.printf "spans written to %s\n" path

(* -- command line -- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and traced = ref 0 in
  let dir = ref ".bench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME point-hot | write-cold | scan-mvcc");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int traced, "0|1 end-to-end run or traced layer ladder");
      ("--dir", Arg.Set_string dir, "DIR store, socket and span-file directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  let spec =
    match find !workload with
    | Some s -> s
    | None ->
        Printf.eprintf "unknown workload %S\n" !workload;
        exit 2
  in
  if not (Sys.file_exists !dir) then Sys.mkdir !dir 0o755;
  Printf.printf "workload=%s N=%d key_space=%d depth=%d seed=%d seconds=%g trace=%d\n"
    spec.name spec.n (2 * spec.n) depth !seed !seconds !traced;
  Printf.printf
    "store: data file + WAL on memfds linked from %s/ (order %d, %d-page cache, 1 shard, \
     1 worker); minor heap %d words\n%!"
    !dir order Repro_storage.Paged_store.default_cache_pages (Gc.get ()).minor_heap_size;
  if !traced = 1 then trace spec ~seed:!seed ~seconds:!seconds ~dir:!dir
  else e2e spec ~seed:!seed ~seconds:!seconds ~dir:!dir;
  let correct = !failed = 0 in
  if not correct then
    Printf.eprintf "FAILED: %d of %d operations failed (%d mismatches)\n%!" !failed
      !attempted !mismatches;
  print_result ~correct;
  exit (if correct then 0 else 1)
