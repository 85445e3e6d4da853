module P = Repro_server.Protocol
module Conn = Repro_server.Conn

exception Remote_error of string

type t = {
  fd : Unix.file_descr;
  conn : Conn.t;
  mutable seq : int;
  out : P.Writer.t;
  mutable closed : bool;
}

let connect addr =
  let fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) SOCK_STREAM 0
  in
  (try Unix.connect fd addr
   with e ->
     Unix.close fd;
     raise e);
  (* The client cannot see the server's running workers, so it counts
     only itself: it polls for replies only on more than one core, where
     the spin cannot hold the core the server needs to answer. *)
  {
    fd;
    conn = Conn.create ~running:(Atomic.make 1) fd;
    seq = 0;
    out = P.Writer.create ();
    closed = false;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* Read until one complete response frame is buffered; return it. *)
let rec read_response t =
  match Conn.next_response t.conn with
  | Frame { seq; body; _ } -> (seq, body)
  | Need_more ->
      if Conn.fill t.conn = 0 then raise End_of_file;
      read_response t

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
  let send () = in_flight := !in_flight + Conn.flush t.conn t.out in
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
