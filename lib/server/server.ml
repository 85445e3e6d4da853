(** Accept loop + worker-domain pool over a tree handle. See the
    interface for the concurrency and durability contract. *)

open Repro_storage
module P = Protocol

(** What a Subscribe request reads: the primary's per-shard WAL stream.
    The functions close over the backing stores (built by the CLI / the
    tests from [Paged_store.wal_fetch] / [wal_wait]); an unsharded
    primary is simply [ws_shards = 1]. *)
type wal_source = {
  ws_shards : int;
  ws_fetch : shard:int -> lsn:int -> max_pages:int -> Wal.fetch;
  ws_wait : shard:int -> lsn:int -> timeout:float -> bool;
}

type t = {
  listeners : Unix.file_descr list;
  addrs : Unix.sockaddr list;
  stopping : bool Atomic.t;
  (* accepted connections waiting for a worker *)
  q : Unix.file_descr Queue.t;
  q_mu : Mutex.t;
  q_cv : Condition.t;
  (* fds being served right now, so [stop] can unblock their reads *)
  active : (Unix.file_descr, unit) Hashtbl.t;
  active_mu : Mutex.t;
  worker_stats : Stats.server array;
  handle : Repro_baseline.Tree_intf.handle;
  wal_source : wal_source option;
  durable_acks : bool;
  combine_batch : bool;
  max_payload : int;
  mutable domains : unit Domain.t list;
  mutable stopped : bool;
}

let merged_stats t =
  let acc = Stats.server_create () in
  Array.iter (fun s -> Stats.server_merge ~into:acc s) t.worker_stats;
  acc

let stats = merged_stats
let addresses t = t.addrs

(* Seconds on the monotonic clock: nanosecond resolution and no steps,
   so a service time far below a microsecond still lands in its own
   histogram bucket. Only differences are meaningful. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* -- connection service -- *)

let write_all fd bytes len =
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

let is_mutation = function
  | P.Insert _ | P.Delete _ -> true
  | P.Search _ | P.Range _ | P.Commit | P.Stats | P.Subscribe _
  | P.Snapshot _ ->
      false

(* The key a mutation touches — what the sharded commit path routes on. *)
let mutation_key = function
  | P.Insert { key; _ } | P.Delete { key } -> Some key
  | P.Search _ | P.Range _ | P.Commit | P.Stats | P.Subscribe _
  | P.Snapshot _ ->
      None

(* Replication pull: serve durable log pages of one shard, long-polling
   the durable watermark first when the subscriber asked to wait (this
   is how "stream after each fsync" lands inside a strict
   request/response protocol — the commit fsync advances the watermark
   and the parked fetch picks the new records up immediately). The wait
   is bounded so a worker is never parked longer than a stop can
   tolerate. *)
let execute_subscribe t ~shard ~from_lsn ~max_pages ~wait_ms : P.response =
  match t.wal_source with
  | None -> Error "replication unsupported (no WAL source)"
  | Some ws ->
      if shard < 0 || shard >= ws.ws_shards then
        Error (Printf.sprintf "no shard %d (have %d)" shard ws.ws_shards)
      else if from_lsn < 0 || max_pages < 1 then
        Error "bad subscribe bounds"
      else begin
        (* clamp the chunk so it always fits one response frame: the
           subscriber's decoder enforces the protocol payload bound, and
           a partial chunk just means another pull *)
        let fetch ~lsn ~max_pages =
          match ws.ws_fetch ~shard ~lsn ~max_pages with
          | Wal.Pages { pages = p :: _ as pages; next } ->
              let fit =
                max 1 ((P.default_max_payload - 64) / Bytes.length p)
              in
              if List.length pages <= fit then Wal.Pages { pages; next }
              else
                Wal.Pages
                  {
                    pages = List.filteri (fun i _ -> i < fit) pages;
                    next = lsn + fit;
                  }
          | r -> r
        in
        let deadline =
          now () +. (float_of_int (min wait_ms 10_000) /. 1000.)
        in
        (* wait in slices so [stop] never stalls on a parked long-poll *)
        let rec park () =
          let left = deadline -. now () in
          if left > 0. && not (Atomic.get t.stopping) then
            if ws.ws_wait ~shard ~lsn:from_lsn ~timeout:(Float.min left 0.05)
            then ()
            else park ()
        in
        (match fetch ~lsn:from_lsn ~max_pages with
        | Wal.At_end -> park ()
        | _ -> ());
        match fetch ~lsn:from_lsn ~max_pages with
        | Wal.Pages { pages; next } ->
            P.Wal_chunk { shard; next_lsn = next; pages }
        | Wal.At_end -> P.Wal_chunk { shard; next_lsn = from_lsn; pages = [] }
        | Wal.Stale -> Error "stale"
      end

(* [snap] is the connection's pinned snapshot session (SNAPSHOT open /
   close): while set, reads answer at its cut instead of current time.
   Without a session, a RANGE on an MVCC backend still gets its own
   per-request cut — one pin around the scan — so a single reply is
   always point-in-time consistent (the unversioned [handle.range] walk
   is weak under concurrent writers). *)
let execute t (sst : Stats.server) ctx
    ~(snap : Repro_baseline.Tree_intf.snap option ref) (req : P.request) :
    P.response =
  match req with
  | Insert { key; value } -> (
      match t.handle.insert ctx key value with
      | `Ok -> Inserted
      | `Duplicate -> Duplicate)
  | Delete { key } -> if t.handle.delete ctx key then Deleted else Absent
  | Search { key } -> (
      match !snap with
      | Some s -> (
          sst.snap_reads <- sst.snap_reads + 1;
          match s.Repro_baseline.Tree_intf.snap_search ctx key with
          | Some v -> Found v
          | None -> Absent)
      | None -> (
          match t.handle.search ctx key with
          | Some v -> Found v
          | None -> Absent))
  | Range { lo; hi } -> (
      match !snap with
      | Some s ->
          sst.snap_reads <- sst.snap_reads + 1;
          Pairs (s.Repro_baseline.Tree_intf.snap_range ctx ~lo ~hi)
      | None -> (
          match t.handle.mvcc with
          | Some m ->
              let s = m.Repro_baseline.Tree_intf.snapshot () in
              sst.snapshots_opened <- sst.snapshots_opened + 1;
              sst.snap_reads <- sst.snap_reads + 1;
              Fun.protect
                ~finally:s.Repro_baseline.Tree_intf.snap_release
                (fun () ->
                  P.Pairs (s.Repro_baseline.Tree_intf.snap_range ctx ~lo ~hi))
          | None -> (
              match t.handle.range with
              | Some f -> Pairs (f ctx ~lo ~hi)
              | None -> Error "range unsupported by this backend")))
  | Snapshot { close } -> (
      let release () =
        match !snap with
        | Some s ->
            s.Repro_baseline.Tree_intf.snap_release ();
            snap := None
        | None -> ()
      in
      if close then begin
        release ();
        Snap_reply { epoch = -1 }
      end
      else
        match t.handle.mvcc with
        | None -> Error "snapshot unsupported by this backend"
        | Some m ->
            release ();
            let s = m.Repro_baseline.Tree_intf.snapshot () in
            snap := Some s;
            sst.snapshots_opened <- sst.snapshots_opened + 1;
            Snap_reply { epoch = s.Repro_baseline.Tree_intf.snap_epoch })
  | Commit ->
      t.handle.commit ();
      sst.acked_commits <- sst.acked_commits + 1;
      Committed
  | Stats ->
      let m = merged_stats t in
      let us p =
        int_of_float (Repro_util.Histogram.percentile m.latency p *. 1e6)
      in
      Stats_reply
        {
          s_conns_opened = m.conns_opened;
          s_conns_active = m.conns_active;
          s_frames_in = m.frames_in;
          s_frames_out = m.frames_out;
          s_bytes_in = m.bytes_in;
          s_bytes_out = m.bytes_out;
          s_max_pipeline = m.max_pipeline;
          s_protocol_errors = m.protocol_errors;
          s_acked_commits = m.acked_commits;
          s_lat_p50_us = us 50.0;
          s_lat_p99_us = us 99.0;
          s_cardinal = t.handle.cardinal ();
          s_height = t.handle.height ();
        }
  | Subscribe { shard; from_lsn; max_pages; wait_ms } ->
      execute_subscribe t ~shard ~from_lsn ~max_pages ~wait_ms

(* Per-connection, per-batch dedup state: what this batch's already-
   executed operations proved about a key. [KPresent (Some v)] — present
   with payload [v]; [KPresent None] — present, payload unknown (a
   duplicate insert proved presence without revealing the stored
   payload); [KAbsent] — absent. *)
type kst = KPresent of int option | KAbsent

(* Combine-mode execution: answer from the batch's dedup state when the
   operation is a tree no-op anchored at an earlier op of this batch on
   the same key; otherwise run it physically and record what it proved.
   A derived response linearizes immediately after its anchor — valid
   because every op in a drained batch is concurrent with every other
   (all were pipelined before any response flushed), so any order over
   them is admissible. Only tree no-ops are ever derived; state-changing
   operations always execute physically, so [kstate] never diverges from
   the tree: it only holds facts a batch-local physical op established.
   [mutated] records "saw a mutation request" (elided or not);
   [state_changed] records "a physical mutation changed the tree" — the
   commit decision below keys on the latter. *)
let execute_combined t (sst : Stats.server) ctx ~kstate ~mutated
    ~state_changed ~touched ~snap (req : P.request) : P.response =
  let mark_touched key =
    match t.handle.sharding with
    | Some s -> touched.(s.shard_of_key key) <- true
    | None -> ()
  in
  match req with
  (* a pinned session reads at its cut — batch-dedup facts describe
     current time, so piggybacking them onto a snapshot read would leak
     post-cut writes *)
  | P.Search _ when !snap <> None -> execute t sst ctx ~snap req
  | P.Insert { key; value } -> (
      match Hashtbl.find_opt kstate key with
      | Some (KPresent _) ->
          mutated := true;
          sst.elided <- sst.elided + 1;
          Duplicate
      | Some KAbsent | None -> (
          mutated := true;
          match t.handle.insert ctx key value with
          | `Ok ->
              state_changed := true;
              mark_touched key;
              Hashtbl.replace kstate key (KPresent (Some value));
              Inserted
          | `Duplicate ->
              Hashtbl.replace kstate key (KPresent None);
              Duplicate))
  | P.Delete { key } -> (
      match Hashtbl.find_opt kstate key with
      | Some KAbsent ->
          mutated := true;
          sst.elided <- sst.elided + 1;
          Absent
      | Some (KPresent _) | None ->
          mutated := true;
          let hit = t.handle.delete ctx key in
          Hashtbl.replace kstate key KAbsent;
          if hit then begin
            state_changed := true;
            mark_touched key;
            Deleted
          end
          else Absent)
  | P.Search { key } -> (
      match Hashtbl.find_opt kstate key with
      | Some (KPresent (Some v)) ->
          sst.piggybacked <- sst.piggybacked + 1;
          Found v
      | Some KAbsent ->
          sst.piggybacked <- sst.piggybacked + 1;
          Absent
      | Some (KPresent None) | None -> (
          match t.handle.search ctx key with
          | Some v ->
              Hashtbl.replace kstate key (KPresent (Some v));
              Found v
          | None ->
              Hashtbl.replace kstate key KAbsent;
              Absent))
  | P.Range _ | P.Commit | P.Stats | P.Subscribe _ | P.Snapshot _ ->
      execute t sst ctx ~snap req

(* Serve one connection to completion on worker [slot]. The read loop
   drains every complete frame the kernel delivered (the pipeline
   batch), executes in order, commits once if the batch mutated and
   acks are durable, then flushes all the responses together. *)
let serve_conn t ~slot fd =
  let sst = t.worker_stats.(slot) in
  sst.conns_opened <- sst.conns_opened + 1;
  sst.conns_active <- sst.conns_active + 1;
  let ctx = Repro_core.Handle.ctx ~slot in
  (* Sharded handle: per-batch touched-shard set, so the ack commit
     below covers exactly the shards this batch mutated. *)
  let touched =
    match t.handle.sharding with
    | Some s -> Array.make s.shard_count false
    | None -> [||]
  in
  let kstate : (int, kst) Hashtbl.t = Hashtbl.create 16 in
  (* SNAPSHOT session state: one pin, many reads, released on close or
     when the connection ends *)
  let snap : Repro_baseline.Tree_intf.snap option ref = ref None in
  let cap = ref 4096 in
  let buf = ref (Bytes.create !cap) in
  let lo = ref 0 and hi = ref 0 in
  let out = Buffer.create 4096 in
  let closing = ref false in
  let flush_out () =
    let n = Buffer.length out in
    if n > 0 then begin
      write_all fd (Buffer.to_bytes out) n;
      Buffer.clear out;
      sst.bytes_out <- sst.bytes_out + n
    end
  in
  let respond ~seq resp =
    P.encode_response out ~seq resp;
    sst.frames_out <- sst.frames_out + 1;
    (match (resp : P.response) with Error _ -> closing := true | _ -> ())
  in
  (* The session pin must not outlive the connection, however it comes
     down: it holds the reclamation horizon for every store sharing the
     clock. The expected disconnects (peer close, protocol error) are
     handled below, but an exception between pin publication and release
     — an ack commit failing at line's end, a write error while flushing
     a batch — would otherwise skip the teardown entirely (worker_loop
     swallows it), leaking the pin and pinning vacuum's horizon forever.
     [Fun.protect] makes the release and the gauge decrement
     unconditional. *)
  Fun.protect
    ~finally:(fun () ->
      (match !snap with
      | Some s -> (
          try s.Repro_baseline.Tree_intf.snap_release ()
          with _ -> ())
      | None -> ());
      sst.conns_active <- sst.conns_active - 1)
  @@ fun () ->
  try
     while not !closing do
       (* make room, then read *)
       if !lo > 0 && (!lo = !hi || !cap - !hi < 512) then begin
         Bytes.blit !buf !lo !buf 0 (!hi - !lo);
         hi := !hi - !lo;
         lo := 0
       end;
       if !cap - !hi < 512 then begin
         cap := !cap * 2;
         let b = Bytes.create !cap in
         Bytes.blit !buf 0 b 0 !hi;
         buf := b
       end;
       let n = Unix.read fd !buf !hi (!cap - !hi) in
       if n = 0 then closing := true
       else begin
         hi := !hi + n;
         sst.bytes_in <- sst.bytes_in + n;
         (* drain the batch; a bad frame poisons the stream but the
            frames parsed before it still execute and answer *)
         let batch = ref [] in
         let poisoned = ref None in
         (try
            let continue = ref true in
            while !continue do
              match
                P.decode_request ~max_payload:t.max_payload !buf ~pos:!lo
                  ~len:(!hi - !lo)
              with
              | Need_more -> continue := false
              | Frame { seq; body; consumed } ->
                  lo := !lo + consumed;
                  sst.frames_in <- sst.frames_in + 1;
                  batch := (seq, body) :: !batch
            done
          with P.Bad_frame msg ->
            sst.protocol_errors <- sst.protocol_errors + 1;
            poisoned := Some msg);
         let batch = List.rev !batch in
         let depth = List.length batch in
         if depth > sst.max_pipeline then sst.max_pipeline <- depth;
         let mutated = ref false in
         let state_changed = ref false in
         Array.fill touched 0 (Array.length touched) false;
         (* dedup facts never survive a batch boundary: the concurrency
            argument (all ops' windows overlap) only holds within one
            drained batch *)
         if t.combine_batch then Hashtbl.reset kstate;
         List.iter
           (fun (seq, req) ->
             if not !closing then begin
               if (not t.combine_batch) && is_mutation req then begin
                 mutated := true;
                 match (t.handle.sharding, mutation_key req) with
                 | Some s, Some key -> touched.(s.shard_of_key key) <- true
                 | _ -> ()
               end;
               let t0 = now () in
               let resp =
                 try
                   if t.combine_batch then
                     execute_combined t sst ctx ~kstate ~mutated
                       ~state_changed ~touched ~snap req
                   else execute t sst ctx ~snap req
                 with e -> P.Error (Printexc.to_string e)
               in
               Repro_util.Histogram.add sst.latency (now () -. t0);
               respond ~seq resp
             end)
           batch;
         (* durable acks: the batch's mutations reach the log (and, via
            the WAL's group commit, disk) before any ack flushes. On a
            sharded handle only the shards this batch touched commit —
            each fold into its own shard's group commit, so batches on
            different shards never serialise on one log fsync. The walk
            starts at a slot-dependent shard so concurrently-committing
            workers spread their leader duty instead of convoying. *)
         if
           t.durable_acks
           && if t.combine_batch then !state_changed else !mutated
         then begin
           (match t.handle.sharding with
           | Some s ->
               let n = s.shard_count in
               for j = 0 to n - 1 do
                 let i = (j + (slot mod n)) mod n in
                 if touched.(i) then begin
                   s.commit_shard i;
                   Stats.note_shard_ack sst i
                 end
               done
           | None -> t.handle.commit ());
           sst.acked_commits <- sst.acked_commits + 1
         end
         else if t.durable_acks && !mutated then
           (* combine mode, mutation requests seen, but every surviving
              mutation was a tree no-op: nothing new to make durable, so
              the ack-covering commit is elided *)
           sst.commits_skipped <- sst.commits_skipped + 1;
         (match !poisoned with
         | Some msg -> respond ~seq:0 (P.Error ("bad frame: " ^ msg))
         | None -> ());
         flush_out ()
       end
     done
  with
  | P.Bad_frame msg ->
      sst.protocol_errors <- sst.protocol_errors + 1;
      (try
         respond ~seq:0 (P.Error ("bad frame: " ^ msg));
         flush_out ()
       with Unix.Unix_error _ -> ())
  | Unix.Unix_error _ | End_of_file -> ()

(* -- domains -- *)

let worker_loop t slot =
  let rec next () =
    Mutex.lock t.q_mu;
    let rec wait () =
      if not (Queue.is_empty t.q) then Some (Queue.pop t.q)
      else if Atomic.get t.stopping then None
      else begin
        Condition.wait t.q_cv t.q_mu;
        wait ()
      end
    in
    let r = wait () in
    Mutex.unlock t.q_mu;
    match r with
    | None -> ()
    | Some fd ->
        Mutex.lock t.active_mu;
        Hashtbl.replace t.active fd ();
        Mutex.unlock t.active_mu;
        (try serve_conn t ~slot fd with _ -> ());
        Mutex.lock t.active_mu;
        Hashtbl.remove t.active fd;
        Mutex.unlock t.active_mu;
        (try Unix.close fd with Unix.Unix_error _ -> ());
        next ()
  in
  next ()

let accept_loop t =
  while not (Atomic.get t.stopping) do
    match Unix.select t.listeners [] [] 0.05 with
    | ready, _, _ ->
        List.iter
          (fun lfd ->
            match Unix.accept ~cloexec:true lfd with
            | fd, _ ->
                Mutex.lock t.q_mu;
                Queue.push fd t.q;
                Condition.signal t.q_cv;
                Mutex.unlock t.q_mu
            | exception Unix.Unix_error _ -> ())
          ready
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

let start ?(workers = 4) ?(durable_acks = false) ?(combine_batch = false)
    ?(max_payload = P.default_max_payload) ?wal_source ~handle ~listen () =
  (* a peer that drops mid-reply must cost an EPIPE, not the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listeners, addrs =
    List.split
      (List.map
         (fun addr ->
           let dom = Unix.domain_of_sockaddr addr in
           let fd = Unix.socket ~cloexec:true dom SOCK_STREAM 0 in
           (try
              if dom <> PF_UNIX then Unix.setsockopt fd SO_REUSEADDR true;
              Unix.bind fd addr;
              Unix.listen fd 64
            with e ->
              Unix.close fd;
              raise e);
           (fd, Unix.getsockname fd))
         listen)
  in
  let t =
    {
      listeners;
      addrs;
      stopping = Atomic.make false;
      q = Queue.create ();
      q_mu = Mutex.create ();
      q_cv = Condition.create ();
      active = Hashtbl.create 16;
      active_mu = Mutex.create ();
      worker_stats = Array.init workers (fun _ -> Stats.server_create ());
      handle;
      wal_source;
      durable_acks;
      combine_batch;
      max_payload;
      domains = [];
      stopped = false;
    }
  in
  t.domains <-
    Domain.spawn (fun () -> accept_loop t)
    :: List.init workers (fun slot ->
           Domain.spawn (fun () -> worker_loop t slot));
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.stopping true;
    (* unblock workers parked in read(2) *)
    Mutex.lock t.active_mu;
    Hashtbl.iter
      (fun fd () ->
        try Unix.shutdown fd SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      t.active;
    Mutex.unlock t.active_mu;
    Mutex.lock t.q_mu;
    Condition.broadcast t.q_cv;
    Mutex.unlock t.q_mu;
    List.iter Domain.join t.domains;
    t.domains <- [];
    (* connections accepted but never served *)
    Queue.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.q;
    Queue.clear t.q;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      t.listeners
  end
