(** One end of a framed socket: its read buffer, the adaptive read that
    fills it and the write that drains a {!Protocol.Writer}. The server's
    workers and the client both talk through it. *)

module P = Protocol

type t = {
  fd : Unix.file_descr;
  running : int Atomic.t;  (** domains competing for the cores, see {!create} *)
  mutable buf : Bytes.t;
  mutable lo : int;  (** first byte not yet decoded *)
  mutable hi : int;  (** end of the bytes read *)
  mutable nonblock : bool;  (** O_NONBLOCK as last set on [fd] *)
  mutable last_wait : float;  (** seconds the previous read waited *)
}

let create ~running fd =
  {
    fd;
    running;
    buf = Bytes.create 4096;
    lo = 0;
    hi = 0;
    nonblock = false;
    last_wait = 0.;
  }

(* Waiting for the next batch. A pipelining peer usually sends its next
   batch a few microseconds after it reads the last answers, and a
   read(2) that blocks costs a sleep and a wake-up on each side. So
   before a read blocks it polls the socket without blocking, for up to
   [spin_window]. It polls only if its previous wait ended inside the
   window, so an idle or slow peer gets a blocking read at once, and
   only while fewer domains are running than the machine has cores, so
   a spinning reader never takes a core another domain could use. The
   poll is a non-blocking [read], not [select], which fails for fds of
   1024 and above. *)
let spin_window = 50e-6
let cores = Domain.recommended_domain_count ()

(* A poll that found data leaves the fd non-blocking, so a steady stream
   of batches pays no fcntl; a read that gives up and a write that
   would block switch it back. *)
let set_blocking c =
  if c.nonblock then begin
    Unix.clear_nonblock c.fd;
    c.nonblock <- false
  end

let rec write_all c bytes off len =
  if off < len then
    match Unix.write c.fd bytes off (len - off) with
    | n -> write_all c bytes (off + n) len
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        set_blocking c;
        write_all c bytes off len

let flush c w =
  let n = P.Writer.length w in
  P.Writer.reset w;
  write_all c (P.Writer.bytes w) 0 n;
  n

(* A shutdown of the socket makes either read return 0 at once. *)
let read c off len =
  let t0 = Repro_util.Clock.now () in
  let park () =
    set_blocking c;
    Atomic.decr c.running;
    match Unix.read c.fd c.buf off len with
    | n ->
        Atomic.incr c.running;
        n
    | exception e ->
        Atomic.incr c.running;
        raise e
  in
  let rec poll () =
    match Unix.read c.fd c.buf off len with
    | n -> n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        if Repro_util.Clock.now () -. t0 < spin_window then poll () else park ()
  in
  let n =
    if c.last_wait <= spin_window && Atomic.get c.running < cores then begin
      if not c.nonblock then begin
        Unix.set_nonblock c.fd;
        c.nonblock <- true
      end;
      poll ()
    end
    else park ()
  in
  c.last_wait <- Repro_util.Clock.now () -. t0;
  n

(* Make room, then read. The buffer is compacted only when it is drained
   or has under 512 bytes of room, so a partial frame is not copied on
   every read, and doubled when it still has under 512. This rule fixes
   how many bytes one read may take, and so where a server's batch
   ends. *)
let fill c =
  if c.lo > 0 && (c.lo = c.hi || Bytes.length c.buf - c.hi < 512) then begin
    Bytes.blit c.buf c.lo c.buf 0 (c.hi - c.lo);
    c.hi <- c.hi - c.lo;
    c.lo <- 0
  end;
  if Bytes.length c.buf - c.hi < 512 then begin
    let b = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf 0 b 0 c.hi;
    c.buf <- b
  end;
  let n = read c c.hi (Bytes.length c.buf - c.hi) in
  c.hi <- c.hi + n;
  n

let consume c = function
  | P.Frame { consumed; _ } as fr ->
      c.lo <- c.lo + consumed;
      fr
  | Need_more -> Need_more

let next_request c = consume c (P.decode_request c.buf ~pos:c.lo ~len:(c.hi - c.lo))
let next_response c = consume c (P.decode_response c.buf ~pos:c.lo ~len:(c.hi - c.lo))
