(** Compression work queue (paper §5.4).

    A deletion that leaves a node less than half full puts the node on a
    queue; compression processes pop nodes and compress them. The queue is
    "locked with an exclusive lock" when shared — a mutex here. Entries are
    identified by the node pointer; pushing an already-queued node updates
    its information (the high value known to the pusher is at least as
    recent when the pusher holds the node's lock, which is why {!push}
    takes [~update]). Pops prefer higher levels, per the paper's footnote:
    "it is a good idea to give priority to nodes having a higher level and
    remove them first from the queue." *)

open Repro_storage

type 'k entry = {
  ptr : Node.ptr;
  level : int;
  mutable high : 'k Bound.t;
  mutable stack : Node.ptr list;  (** path from root, top = parent-level node *)
  mutable stamp : int;  (** enqueue epoch, for diagnostics *)
  mutable live : bool;
}

let max_levels = 64

type 'k t = {
  mutex : Mutex.t;
  by_ptr : (Node.ptr, 'k entry) Hashtbl.t;
  buckets : 'k entry Queue.t array;  (** index = tree level *)
  mutable count : int;
}

let create () =
  {
    mutex = Mutex.create ();
    by_ptr = Hashtbl.create 64;
    buckets = Array.init max_levels (fun _ -> Queue.create ());
    count = 0;
  }

(** [push t ~update ~ptr ~level ~high ~stack ~stamp] enqueues the node.
    If it is already queued: with [update = true] (caller holds the node's
    lock, so its info is at least as recent) the entry is refreshed; with
    [update = false] (§5.4's "should not update" case — re-queueing without
    the node's lock) the existing, more recent entry wins. *)
let push t ~update ~ptr ~level ~high ~stack ~stamp =
  (* Invariant check before the mutex: an out-of-range level previously
     raised [Index_out_of_bounds] from the unchecked [buckets.(level)]
     inside the critical section — the mutex stayed locked (poisoning
     every later push/pop) and the entry sat half-registered in [by_ptr]
     with no bucket to pop it from. 64 levels bound any tree this store
     can address; hitting this is a caller bug, reported as such before
     any state is touched. *)
  if level < 0 || level >= max_levels then
    invalid_arg
      (Printf.sprintf "Cqueue.push: level %d outside [0, %d)" level max_levels);
  Mutex.lock t.mutex;
  (match Hashtbl.find_opt t.by_ptr ptr with
  | Some e when e.live ->
      if update then begin
        e.high <- high;
        e.stack <- stack;
        e.stamp <- stamp
      end
  | Some _ | None ->
      let e = { ptr; level; high; stack; stamp; live = true } in
      Hashtbl.replace t.by_ptr ptr e;
      Queue.push e t.buckets.(level);
      t.count <- t.count + 1);
  Mutex.unlock t.mutex

(** Pop the entry with the highest level; [None] when empty. *)
let pop t =
  Mutex.lock t.mutex;
  let result = ref None in
  let lvl = ref (max_levels - 1) in
  while !result = None && !lvl >= 0 do
    let q = t.buckets.(!lvl) in
    while !result = None && not (Queue.is_empty q) do
      let e = Queue.pop q in
      if e.live then begin
        e.live <- false;
        Hashtbl.remove t.by_ptr e.ptr;
        t.count <- t.count - 1;
        result := Some e
      end
    done;
    decr lvl
  done;
  Mutex.unlock t.mutex;
  !result

(** Drop a queued node (it was deleted by a merge, §5.4). *)
let remove t ptr =
  Mutex.lock t.mutex;
  (match Hashtbl.find_opt t.by_ptr ptr with
  | Some e when e.live ->
      e.live <- false;
      Hashtbl.remove t.by_ptr ptr;
      t.count <- t.count - 1
  | Some _ | None -> ());
  Mutex.unlock t.mutex

let length t =
  Mutex.lock t.mutex;
  let n = t.count in
  Mutex.unlock t.mutex;
  n
