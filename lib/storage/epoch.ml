(** Epoch-based reclamation of deleted pages (paper §5.3).

    The paper: "record in the node the time of its deletion, and store for
    each running process its starting time; a deleted node can be released
    when all currently running processes have started after its deletion
    time." This module is that scheme with a logical clock: every logical
    operation pins the current epoch for its duration; a page retired at
    epoch [e] is released once every pinned epoch exceeds [e].

    Wait-free pin/unpin; retire and reclaim serialise on a mutex (they are
    off the hot path — one retire per page deletion). *)

type retired = { epoch : int; ptr : Node.ptr }

type t = {
  global : int Atomic.t;
  pins : int Atomic.t array;  (** per-worker pinned epoch; [max_int] = idle *)
  snap_pins : int Atomic.t array;
      (** per-snapshot pinned epoch; [max_int] = slot free. Separate from
          worker pins so a snapshot's publication wait ({!tick} +
          {!min_worker_pinned}) never counts other snapshots, while the
          reclaim horizon ({!min_pinned}) counts both. *)
  mutable limbo : retired list;  (** strictly descending epochs (newest first) *)
  limbo_len : int Atomic.t;  (** length of [limbo]; readable without the mutex *)
  limbo_mutex : Mutex.t;
  reclaimed : int Atomic.t;
}

let stride = Repro_util.Counters.stride

(* Worker and snapshot pin slots; a worker's slot number wraps modulo. *)
let nslots = 64
let n_snap_slots = 64

let create () =
  {
    global = Atomic.make 0;
    pins = Array.init (nslots * stride) (fun _ -> Atomic.make max_int);
    snap_pins = Array.init (n_snap_slots * stride) (fun _ -> Atomic.make max_int);
    limbo = [];
    limbo_len = Atomic.make 0;
    limbo_mutex = Mutex.create ();
    reclaimed = Atomic.make 0;
  }

let current t = Atomic.get t.global

(** Advance the clock, returning the pre-advance value [e]: the boundary
    epoch of a snapshot cut. Writers pinned at [<= e] started before the
    tick; pins published after it land at [> e] (their validate loop
    re-reads the advanced clock). *)
let tick t = Atomic.fetch_and_add t.global 1

(** Raise the clock to at least [e] (CAS-max; no-op when already past).
    Recovery uses this to restart the clock above every persisted version
    epoch so post-recovery stamps never regress below durable state. *)
let advance_to t e =
  let rec go () =
    let cur = Atomic.get t.global in
    if cur < e && not (Atomic.compare_and_set t.global cur e) then go ()
  in
  go ()

(* Test-only hook fired between reading [global] and publishing the pin —
   lets a regression test drive the retire/reclaim interleaving the
   publish-then-validate loop below exists to survive. Production cost:
   one immutable-ref read per loop iteration. *)
let pin_hook : (unit -> unit) option ref = ref None

(** Pin the calling worker to the current epoch. Must be balanced with
    {!unpin}; not reentrant per slot.

    Publish-then-validate: store the candidate epoch, then re-read
    [global] and retry if it advanced. A plain read-then-store is racy —
    between the read of [global] and the store into the pin slot, a
    [retire] (which bumps [global]) plus a [reclaim] can run; the
    reclaim's {!min_pinned} scan does not see the not-yet-published pin,
    computes a horizon above the read epoch, and frees a page the
    pinning worker is about to traverse (use-after-free / [Freed_page]).
    With the loop: when the re-read returns the value we published, the
    publish is SC-before any later [retire]'s counter bump — so any
    reclaim whose horizon could newly exceed our epoch scans the pin
    array after our store and must see it. When the re-read shows an
    advance, pages retired at the stale epoch may already be freed, so
    we re-publish at the newer epoch and validate again; the loop only
    iterates while retires are landing concurrently. *)
let pin t ~slot =
  let a = t.pins.((slot mod nslots) * stride) in
  let rec publish e =
    (match !pin_hook with Some f -> f () | None -> ());
    Atomic.set a e;
    let e' = Atomic.get t.global in
    if e' <> e then publish e' else e
  in
  publish (Atomic.get t.global)

let unpin t ~slot = Atomic.set t.pins.((slot mod nslots) * stride) max_int

let with_pin t ~slot f =
  let (_ : int) = pin t ~slot in
  Fun.protect ~finally:(fun () -> unpin t ~slot) f

(** Claim a free snapshot slot and pin it to the current epoch, with the
    same publish-then-validate loop as {!pin} (the claiming CAS is the
    publication; a re-read that shows an advance re-publishes, so pages
    or versions retired at the final epoch can no longer be reclaimed).
    Returns [(slot, epoch)] for {!release_snapshot}.
    @raise Failure when all snapshot slots are taken. *)
let pin_snapshot t =
  let rec claim i =
    if i >= n_snap_slots then failwith "Epoch.pin_snapshot: no free snapshot slot"
    else
      let a = t.snap_pins.(i * stride) in
      let e = Atomic.get t.global in
      if Atomic.get a = max_int && Atomic.compare_and_set a max_int e then begin
        let rec validate e =
          let e' = Atomic.get t.global in
          if e' <> e then begin
            Atomic.set a e';
            validate e'
          end
          else e
        in
        (i, validate e)
      end
      else claim (i + 1)
  in
  claim 0

let release_snapshot t slot =
  Atomic.set t.snap_pins.((slot mod n_snap_slots) * stride) max_int

let pinned_snapshots t =
  let c = ref 0 in
  for i = 0 to n_snap_slots - 1 do
    if Atomic.get t.snap_pins.(i * stride) <> max_int then incr c
  done;
  !c

(** Smallest epoch any {e worker} is still pinned to — the wait condition
    of a snapshot cut (other snapshots must not block it). *)
let min_worker_pinned t =
  let m = ref max_int in
  for i = 0 to nslots - 1 do
    let v = Atomic.get t.pins.(i * stride) in
    if v < !m then m := v
  done;
  !m

(** Smallest epoch anything — worker or snapshot — is still pinned to:
    the reclamation horizon. *)
let min_pinned t =
  let m = ref (min_worker_pinned t) in
  for i = 0 to n_snap_slots - 1 do
    let v = Atomic.get t.snap_pins.(i * stride) in
    if v < !m then m := v
  done;
  !m

(** Retire a deleted page: it will be handed to [release] (below, via
    {!reclaim}) once no process that could still read it remains. Advances
    the global epoch so the grace period starts immediately.

    The epoch tick happens {e inside} the mutex so the limbo list stays
    strictly descending in epoch — two concurrent retires could otherwise
    push out of order, and {!reclaim}'s suffix split below depends on the
    ordering. *)
let retire t ptr =
  Mutex.lock t.limbo_mutex;
  let e = Atomic.fetch_and_add t.global 1 in
  t.limbo <- { epoch = e; ptr } :: t.limbo;
  Atomic.incr t.limbo_len;
  Mutex.unlock t.limbo_mutex

(** Release every retired page whose grace period has passed, calling
    [release] on each. Returns how many were released.

    The limbo list is strictly descending in epoch (see {!retire}), so the
    reclaimable entries are exactly a suffix: one walk to the first entry
    older than the horizon splits the list — no [List.partition] copy of
    the survivors, no second traversal to count. Under the mutex the cost
    is the walk over survivors only; the frees happen outside. *)
let reclaim t ~release =
  let horizon = min_pinned t in
  Mutex.lock t.limbo_mutex;
  (* Split at the first entry with [epoch < horizon]: [rev_keep] collects
     survivors (reversed), the return is the reclaimable suffix. *)
  let rec split rev_keep = function
    | r :: rest when r.epoch >= horizon -> split (r :: rev_keep) rest
    | suffix ->
        t.limbo <- List.rev rev_keep;
        suffix
  in
  let free = split [] t.limbo in
  let n = List.length free in
  if n > 0 then ignore (Atomic.fetch_and_add t.limbo_len (-n));
  Mutex.unlock t.limbo_mutex;
  List.iter (fun r -> release r.ptr) free;
  ignore (Atomic.fetch_and_add t.reclaimed n);
  n

(* O(1), no mutex: the count is maintained by retire/reclaim. *)
let pending t = Atomic.get t.limbo_len
let total_reclaimed t = Atomic.get t.reclaimed
