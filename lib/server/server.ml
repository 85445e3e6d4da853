(** Accept loop + worker-domain pool over a tree handle. See the
    interface for the concurrency and durability contract. *)

open Repro_storage
module P = Protocol

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
  (* workers serving a connection and not parked in a blocking read *)
  running : int Atomic.t;
  handle : Repro_baseline.Tree_intf.handle;
  durable_acks : bool;
  mutable domains : unit Domain.t list;
  mutable stopped : bool;
}

let merged_stats t =
  let acc = Stats.server_create () in
  Array.iter (fun s -> Stats.server_merge ~into:acc s) t.worker_stats;
  acc

let stats = merged_stats
let addresses t = t.addrs

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
   tolerate. The stream is the handle's own log: disk handles carry one
   per shard, memory handles none. *)
let execute_subscribe t ~shard ~from_lsn ~max_pages ~wait_ms : P.response =
  match t.handle.log with
  | None -> Error "replication unsupported (no WAL source)"
  | Some logs ->
      if shard < 0 || shard >= Array.length logs then
        Error (Printf.sprintf "no shard %d (have %d)" shard (Array.length logs))
      else if from_lsn < 0 || max_pages < 1 then
        Error "bad subscribe bounds"
      else begin
        (* clamp the chunk so it always fits one response frame: the
           subscriber's decoder enforces the protocol payload bound, and
           a partial chunk just means another pull *)
        let fetch ~lsn ~max_pages =
          match logs.(shard).fetch ~lsn ~max_pages with
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
          Repro_util.Clock.now () +. (float_of_int (min wait_ms 10_000) /. 1000.)
        in
        (* wait in slices so [stop] never stalls on a parked long-poll *)
        let rec park () =
          let left = deadline -. Repro_util.Clock.now () in
          if left > 0. && not (Atomic.get t.stopping) then
            if logs.(shard).wait ~lsn:from_lsn ~timeout:(Float.min left 0.05)
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
  (* SNAPSHOT session state: one pin, many reads, released on close or
     when the connection ends *)
  let snap : Repro_baseline.Tree_intf.snap option ref = ref None in
  (* the drained batch, decoded into reused arrays *)
  let seqs = ref (Array.make 64 0) and reqs = ref (Array.make 64 P.Commit) in
  let out = P.Writer.create () in
  let conn = Conn.create ~running:t.running fd in
  let closing = ref false in
  let flush_out () = sst.bytes_out <- sst.bytes_out + Conn.flush conn out in
  let respond ~seq resp =
    P.Writer.response out ~seq resp;
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
       let n = Conn.fill conn in
       if n = 0 then closing := true
       else begin
         sst.bytes_in <- sst.bytes_in + n;
         (* drain the batch; a bad frame poisons the stream but the
            frames parsed before it still execute and answer *)
         let depth = ref 0 in
         let poisoned = ref None in
         (try
            let continue = ref true in
            while !continue do
              match Conn.next_request conn with
              | Need_more -> continue := false
              | Frame { seq; body; _ } ->
                  sst.frames_in <- sst.frames_in + 1;
                  if !depth = Array.length !reqs then begin
                    let grow a fill =
                      Array.append a (Array.make (Array.length a) fill)
                    in
                    seqs := grow !seqs 0;
                    reqs := grow !reqs P.Commit
                  end;
                  !seqs.(!depth) <- seq;
                  !reqs.(!depth) <- body;
                  incr depth
            done
          with P.Bad_frame msg ->
            sst.protocol_errors <- sst.protocol_errors + 1;
            poisoned := Some msg);
         let depth = !depth in
         if depth > sst.max_pipeline then sst.max_pipeline <- depth;
         let mutated = ref false in
         Array.fill touched 0 (Array.length touched) false;
         for i = 0 to depth - 1 do
           let req = !reqs.(i) in
           if not !closing then begin
             if is_mutation req then begin
               mutated := true;
               match (t.handle.sharding, mutation_key req) with
               | Some s, Some key -> touched.(s.shard_of_key key) <- true
               | _ -> ()
             end;
             let t0 = Repro_util.Clock.now () in
             let resp =
               try execute t sst ctx ~snap req
               with e -> P.Error (Printexc.to_string e)
             in
             Repro_util.Histogram.add sst.latency (Repro_util.Clock.now () -. t0);
             respond ~seq:!seqs.(i) resp
           end
         done;
         (* durable acks: the batch's mutations reach the log (and, via
            the WAL's group commit, disk) before any ack flushes. On a
            sharded handle only the shards this batch touched commit —
            each fold into its own shard's group commit, so batches on
            different shards never serialise on one log fsync. The walk
            starts at a slot-dependent shard so concurrently-committing
            workers spread their leader duty instead of convoying. A
            batch whose mutations changed nothing still commits: the
            store finds nothing unsealed and waits only for the group in
            flight, which may hold the write a [Duplicate] or an
            [Absent] rests on. *)
         if t.durable_acks && !mutated then begin
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
         end;
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
        Atomic.incr t.running;
        (try serve_conn t ~slot fd with _ -> ());
        Atomic.decr t.running;
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

let start ?(workers = 4) ?(durable_acks = false) ~handle ~listen () =
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
      running = Atomic.make 0;
      handle;
      durable_acks;
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
