(** Writer-preferring reader–writer lock.

    OCaml 5.1's stdlib has no RW lock; the coarse-grained and lock-coupling
    baselines need one. Writer preference avoids writer starvation under the
    read-heavy mixes used in the benches. *)

type t = {
  mutex : Mutex.t;
  can_read : Condition.t;
  can_write : Condition.t;
  mutable readers : int;  (** active readers *)
  mutable writer : bool;  (** a writer holds the lock *)
  mutable waiting_writers : int;
}

let create () =
  {
    mutex = Mutex.create ();
    can_read = Condition.create ();
    can_write = Condition.create ();
    readers = 0;
    writer = false;
    waiting_writers = 0;
  }

let read_lock t =
  Mutex.lock t.mutex;
  while t.writer || t.waiting_writers > 0 do
    Condition.wait t.can_read t.mutex
  done;
  t.readers <- t.readers + 1;
  Mutex.unlock t.mutex

let read_unlock t =
  Mutex.lock t.mutex;
  t.readers <- t.readers - 1;
  if t.readers = 0 then Condition.signal t.can_write;
  Mutex.unlock t.mutex

let write_lock t =
  Mutex.lock t.mutex;
  t.waiting_writers <- t.waiting_writers + 1;
  while t.writer || t.readers > 0 do
    Condition.wait t.can_write t.mutex
  done;
  t.waiting_writers <- t.waiting_writers - 1;
  t.writer <- true;
  Mutex.unlock t.mutex

let write_unlock t =
  Mutex.lock t.mutex;
  t.writer <- false;
  if t.waiting_writers > 0 then Condition.signal t.can_write
  else Condition.broadcast t.can_read;
  Mutex.unlock t.mutex

(** [try_write_lock t] is non-blocking; [true] on success. *)
let try_write_lock t =
  Mutex.lock t.mutex;
  let ok = (not t.writer) && t.readers = 0 in
  if ok then t.writer <- true;
  Mutex.unlock t.mutex;
  ok
