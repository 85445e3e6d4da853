module P = Repro_server.Protocol

exception Remote_error of string

type t = {
  fd : Unix.file_descr;
  mutable seq : int;
  out : P.Writer.t;
  mutable buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  mutable closed : bool;
  mutable nonblock : bool;  (** O_NONBLOCK as last set on [fd] *)
  mutable last_wait : float;  (** seconds the previous read waited *)
}

(* Waiting for replies: before a read blocks, poll the socket without
   blocking for up to [spin_window], as the server's workers do. Only
   when the previous wait ended inside the window, so a long batch (a
   scan, a commit) or an idle server gets a blocking read at once, and
   never on a one-core machine, where the spin would hold the core the
   server needs to answer. *)
let spin_window = 50e-6
let spins = Domain.recommended_domain_count () > 1
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let connect addr =
  let fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) SOCK_STREAM 0
  in
  (try Unix.connect fd addr
   with e ->
     Unix.close fd;
     raise e);
  {
    fd;
    seq = 0;
    out = P.Writer.create ();
    buf = Bytes.create 4096;
    lo = 0;
    hi = 0;
    closed = false;
    nonblock = false;
    last_wait = 0.;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* A poll that found data leaves the fd non-blocking; a read that gives
   up and a write that would block switch it back. *)
let set_blocking t =
  if t.nonblock then begin
    Unix.clear_nonblock t.fd;
    t.nonblock <- false
  end

let flush t =
  let n = P.Writer.length t.out in
  let bytes = P.Writer.bytes t.out in
  P.Writer.reset t.out;
  let rec go off =
    if off < n then
      match Unix.write t.fd bytes off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
          set_blocking t;
          go off
  in
  go 0

(* Read what the server sent into [t.buf] after [t.hi]. *)
let read_more t =
  let len = Bytes.length t.buf - t.hi in
  let t0 = now () in
  let block () =
    set_blocking t;
    Unix.read t.fd t.buf t.hi len
  in
  let rec poll () =
    match Unix.read t.fd t.buf t.hi len with
    | n -> n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        if now () -. t0 < spin_window then poll () else block ()
  in
  let n =
    if spins && t.last_wait <= spin_window then begin
      if not t.nonblock then begin
        Unix.set_nonblock t.fd;
        t.nonblock <- true
      end;
      poll ()
    end
    else block ()
  in
  t.last_wait <- now () -. t0;
  n

(* Read until one complete response frame is buffered; return it. *)
let read_response t =
  let rec go () =
    match P.decode_response t.buf ~pos:t.lo ~len:(t.hi - t.lo) with
    | Frame { seq; body; consumed } ->
        t.lo <- t.lo + consumed;
        (seq, body)
    | Need_more ->
        if t.lo > 0 then begin
          Bytes.blit t.buf t.lo t.buf 0 (t.hi - t.lo);
          t.hi <- t.hi - t.lo;
          t.lo <- 0
        end;
        let cap = Bytes.length t.buf in
        if cap - t.hi < 512 then begin
          let b = Bytes.create (cap * 2) in
          Bytes.blit t.buf 0 b 0 t.hi;
          t.buf <- b
        end;
        let n = read_more t in
        if n = 0 then raise End_of_file;
        t.hi <- t.hi + n;
        go ()
  in
  go ()

(* Request bytes a pipeline keeps sent but unanswered. The server
   answers a drained batch before it reads the next, so once both
   directions' socket buffers fill, a client still writing would block
   against a server blocked writing responses. Past this window the
   client reads responses down to half of it before writing on; a batch
   under the window goes out in one write. *)
let window = 65536

let pipeline t reqs =
  let first = t.seq in
  let sizes = Queue.create () (* unanswered frames' sizes, oldest first *)
  and in_flight = ref 0
  and got = ref 0
  and resps = ref [] in
  let send () =
    in_flight := !in_flight + P.Writer.length t.out;
    flush t
  in
  let receive () =
    let expect = (first + !got) land 0xffffffff in
    let seq, resp = read_response t in
    if seq <> expect then
      raise
        (P.Bad_frame
           (Printf.sprintf "response out of order: seq %d, expected %d" seq
              expect));
    in_flight := !in_flight - Queue.pop sizes;
    incr got;
    resps := resp :: !resps
  in
  List.iter
    (fun r ->
      let before = P.Writer.length t.out in
      P.Writer.request t.out ~seq:t.seq r;
      t.seq <- (t.seq + 1) land 0xffffffff;
      Queue.push (P.Writer.length t.out - before) sizes;
      if !in_flight + P.Writer.length t.out > window then begin
        send ();
        while !in_flight > window / 2 do
          receive ()
        done
      end)
    reqs;
  send ();
  while not (Queue.is_empty sizes) do
    receive ()
  done;
  List.rev !resps

let one t req =
  match pipeline t [ req ] with
  | [ P.Error msg ] -> raise (Remote_error msg)
  | [ r ] -> r
  | _ -> assert false

let insert t ~key ~value =
  match one t (P.Insert { key; value }) with
  | Inserted -> `Ok
  | Duplicate -> `Duplicate
  | r -> raise (P.Bad_frame ("unexpected reply " ^ P.response_to_string r))

let delete t ~key =
  match one t (P.Delete { key }) with
  | Deleted -> true
  | Absent -> false
  | r -> raise (P.Bad_frame ("unexpected reply " ^ P.response_to_string r))

let search t ~key =
  match one t (P.Search { key }) with
  | Found v -> Some v
  | Absent -> None
  | r -> raise (P.Bad_frame ("unexpected reply " ^ P.response_to_string r))

let range t ~lo ~hi =
  match one t (P.Range { lo; hi }) with
  | Pairs ps -> ps
  | r -> raise (P.Bad_frame ("unexpected reply " ^ P.response_to_string r))

let commit t =
  match one t P.Commit with
  | Committed -> ()
  | r -> raise (P.Bad_frame ("unexpected reply " ^ P.response_to_string r))

let stats t =
  match one t P.Stats with
  | Stats_reply s -> s
  | r -> raise (P.Bad_frame ("unexpected reply " ^ P.response_to_string r))

let snapshot_open t =
  match one t (P.Snapshot { close = false }) with
  | Snap_reply { epoch } -> epoch
  | r -> raise (P.Bad_frame ("unexpected reply " ^ P.response_to_string r))

let snapshot_close t =
  match one t (P.Snapshot { close = true }) with
  | Snap_reply _ -> ()
  | r -> raise (P.Bad_frame ("unexpected reply " ^ P.response_to_string r))

let wal_fetch t ~shard ~from_lsn ~max_pages ~wait_ms =
  match one t (P.Subscribe { shard; from_lsn; max_pages; wait_ms }) with
  | Wal_chunk { next_lsn; pages; _ } -> (pages, next_lsn)
  | r -> raise (P.Bad_frame ("unexpected reply " ^ P.response_to_string r))
