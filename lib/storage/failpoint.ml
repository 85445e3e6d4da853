(** Named fault-injection sites threaded through the storage stack.

    A {e site} is a fixed point in the IO path (a [Paged_file] write, a
    node-cache fault, a sync phase) registered once at module load
    under a stable name. Production policy is [Off], which costs one
    mutable read per hit; tests arm a site with {!set} and the next hits
    fire the policy:

    - [Error _]: raise {!Injected} every Nth hit — exercises error
      propagation (a failed eviction must put its victim back, not drop
      it; [sync] must stay retryable).
    - [Short_write _]: every Nth write call accepts only a seeded-random
      prefix — exercises the short-write retry loops.
    - [Torn_write]: the next write lands a random {e prefix} of the new
      bytes over the old contents and the process "dies" ({!Crash}); the
      shadow backend promotes the torn page to its durable image, the
      in-flight write that hits the platter as power fails.
    - [Torn_at n]: the same tear, on the nth armed write — a page in
      the middle of a multi-page write.
    - [Crash_after n]: the nth hit raises {!Crash} before the site's
      action runs.

    Once a [Crash] has been raised the registry latches a global
    {!is_crashed} flag; the shadow [Paged_file] backend refuses further
    writes and fsyncs, so a surviving domain (e.g. another worker)
    cannot commit post-mortem work into the simulated disk. {!reset}
    clears the flag, disarms every site and reseeds the RNG.

    Every firing increments the site's {e exercised} counter;
    {!unexercised} lists registered sites that never fired, which the
    crash battery (and CI) require to be empty — a site that exists but
    is never reached by any test is dead instrumentation. *)

type policy =
  | Off
  | Error of { every : int }
  | Short_write of { every : int }
  | Torn_write
  | Torn_at of int
  | Crash_after of int

type action = Proceed | Short of int | Torn of int

exception Crash of string
exception Injected of string

type site = {
  name : string;
  mutable policy : policy;
  hits : int Atomic.t;  (** every call, armed or not *)
  armed_hits : int Atomic.t;  (** hits while the policy is non-[Off] *)
  fired : int Atomic.t;  (** times the policy actually did something *)
}

let registry : (string, site) Hashtbl.t = Hashtbl.create 32
let registry_lock = Mutex.create ()
let crashed = Atomic.make false
let rng = ref (Repro_util.Splitmix.create 0x5EED)
let rng_lock = Mutex.create ()

let site name =
  Mutex.lock registry_lock;
  let s =
    match Hashtbl.find_opt registry name with
    | Some s -> s
    | None ->
        let s =
          {
            name;
            policy = Off;
            hits = Atomic.make 0;
            armed_hits = Atomic.make 0;
            fired = Atomic.make 0;
          }
        in
        Hashtbl.add registry name s;
        s
  in
  Mutex.unlock registry_lock;
  s

let name (s : site) = s.name

let set_site (s : site) policy =
  (match policy with
  | Error { every } | Short_write { every } ->
      if every < 1 then invalid_arg "Failpoint: every must be >= 1"
  | Crash_after n -> if n < 1 then invalid_arg "Failpoint: crash after >= 1 hits"
  | Torn_at n -> if n < 1 then invalid_arg "Failpoint: torn at >= 1 writes"
  | Off | Torn_write -> ());
  s.policy <- policy

let set name policy =
  Mutex.lock registry_lock;
  let s = Hashtbl.find_opt registry name in
  Mutex.unlock registry_lock;
  match s with
  | Some s -> set_site s policy
  | None -> invalid_arg (Printf.sprintf "Failpoint.set: unknown site %S" name)

let seed n =
  Mutex.lock rng_lock;
  rng := Repro_util.Splitmix.create n;
  Mutex.unlock rng_lock

let rand_below n =
  Mutex.lock rng_lock;
  let v = Repro_util.Splitmix.int !rng n in
  Mutex.unlock rng_lock;
  v

let is_crashed () = Atomic.get crashed

let crash (s : site) =
  Atomic.incr s.fired;
  Atomic.set crashed true;
  raise (Crash s.name)

(* Count an armed hit; returns the 1-based ordinal of this hit since the
   site was last armed... close enough: ordinal since registration while
   armed, which is what the deterministic tests arm-then-count against. *)
let armed_ordinal (s : site) = 1 + Atomic.fetch_and_add s.armed_hits 1

(** A non-write site (fsync, fault, sync phases): fires [Error] and
    [Crash_after]; write-shaping policies are inert here. *)
let hit (s : site) =
  Atomic.incr s.hits;
  match s.policy with
  | Off | Short_write _ | Torn_write | Torn_at _ -> ()
  | Error { every } ->
      let k = armed_ordinal s in
      if k mod every = 0 then begin
        Atomic.incr s.fired;
        raise (Injected s.name)
      end
  | Crash_after n -> if armed_ordinal s = n then crash s

let tear s ~len =
  Atomic.incr s.fired;
  (* Disarm: the torn write is one-shot — the process dies with it. *)
  s.policy <- Off;
  Torn (if len > 1 then 1 + rand_below (len - 1) else len)

(** A write of [len] bytes is about to run at [s]: decide its fate.
    [Short k] / [Torn k] return how many bytes the device accepts
    (1 ≤ k < len, seeded); after performing a torn write the caller must
    call {!crash}. *)
let write_action (s : site) ~len =
  Atomic.incr s.hits;
  match s.policy with
  | Off -> Proceed
  | Error { every } ->
      let k = armed_ordinal s in
      if k mod every = 0 then begin
        Atomic.incr s.fired;
        raise (Injected s.name)
      end
      else Proceed
  | Short_write { every } ->
      let k = armed_ordinal s in
      if k mod every = 0 && len > 1 then begin
        Atomic.incr s.fired;
        Short (1 + rand_below (len - 1))
      end
      else Proceed
  | Torn_write ->
      ignore (armed_ordinal s);
      tear s ~len
  | Torn_at n -> if armed_ordinal s = n then tear s ~len else Proceed
  | Crash_after n -> if armed_ordinal s = n then crash s else Proceed

let reset () =
  Mutex.lock registry_lock;
  Hashtbl.iter
    (fun _ s ->
      s.policy <- Off;
      Atomic.set s.armed_hits 0)
    registry;
  Mutex.unlock registry_lock;
  Atomic.set crashed false;
  seed 0x5EED

let registered () =
  Mutex.lock registry_lock;
  let l = Hashtbl.fold (fun n _ acc -> n :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.sort compare l

let exercised name =
  Mutex.lock registry_lock;
  let s = Hashtbl.find_opt registry name in
  Mutex.unlock registry_lock;
  match s with Some s -> Atomic.get s.fired | None -> 0

let unexercised () =
  List.filter (fun n -> exercised n = 0) (registered ())
