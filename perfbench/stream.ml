(* Workload definitions, the seeded request stream, and the sequential
   model every response is checked against. *)

module P = Repro_server.Protocol
module Rng = Repro_util.Splitmix
module Dist = Repro_util.Distribution

type kind = Read | Write | Scan

let kind_name = function Read -> "read" | Write -> "write" | Scan -> "scan"

type spec = {
  name : string;
  n : int;  (** keys bulk-loaded; the key space is [2n] *)
  dist : Dist.kind;
  read_pct : int;  (** share of read batches; writes next; scans the rest *)
  write_pct : int;
  mvcc : bool;  (** durable MVCC backend instead of the plain disk tree *)
  count_batches : int;
      (** fixed-work prefix run after every setup; its counters must repeat
          exactly *)
  batch_rate : int;
      (** reference batches per second: [--seconds] sizes the timed phase
          at [batch_rate * seconds] batches *)
}

(* Requests per pipelined batch, and keys covered by one range. *)
let depth = 16
let scan_width = 100

(* Every workload carries all three batch kinds, because every end-to-end
   metric is reported on every workload; the minor kinds are kept small so
   each workload still loads the layers it was chosen for. *)
let specs =
  [
    {
      name = "point-hot";
      n = 100_000;
      dist = Dist.Zipfian 0.99;
      read_pct = 93;
      write_pct = 5;
      mvcc = false;
      count_batches = 2_000;
      batch_rate = 11_000;
    };
    {
      name = "write-cold";
      n = 500_000;
      dist = Dist.Uniform;
      read_pct = 43;
      write_pct = 49;
      mvcc = false;
      count_batches = 1_000;
      batch_rate = 2_300;
    };
    {
      name = "scan-mvcc";
      n = 100_000;
      dist = Dist.Uniform;
      read_pct = 16;
      write_pct = 42;
      mvcc = true;
      count_batches = 1_000;
      batch_rate = 1_250;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

(* The N bulk-loaded keys: a seeded half of [0, 2N), ascending. *)
let initial_keys spec ~seed =
  let rng = Rng.create (seed lxor 0x5eed_0001) in
  let perm = Rng.permutation rng (2 * spec.n) in
  let keys = Array.sub perm 0 spec.n in
  Array.sort compare keys;
  keys

let initial_value k = (2 * k) + 1

type gen = { spec : spec; rng : Rng.t; sampler : Dist.t; mutable next_value : int }

let generator spec ~seed =
  {
    spec;
    rng = Rng.create seed;
    sampler = Dist.create ~space:(2 * spec.n) spec.dist;
    next_value = 0;
  }

(* One batch: [depth] requests of a single kind drawn from the mix. *)
let next_batch g =
  let roll = Rng.int g.rng 100 in
  let kind =
    if roll < g.spec.read_pct then Read
    else if roll < g.spec.read_pct + g.spec.write_pct then Write
    else Scan
  in
  let key () = Dist.sample g.sampler g.rng in
  let one _ : P.request =
    match kind with
    | Read -> Search { key = key () }
    | Scan ->
        let lo = Rng.int g.rng (2 * g.spec.n) in
        Range { lo; hi = lo + scan_width - 1 }
    | Write ->
        if Rng.int g.rng 2 = 0 then begin
          g.next_value <- g.next_value + 2;
          Insert { key = key (); value = g.next_value }
        end
        else Delete { key = key () }
  in
  (kind, Array.init depth one)

(* Sequential model: one connection executes in order, so the expected
   response of every request is exact. *)
type model = { vals : int array; mutable live : int }

let absent = -1

let model spec keys =
  let vals = Array.make (2 * spec.n) absent in
  Array.iter (fun k -> vals.(k) <- initial_value k) keys;
  { vals; live = Array.length keys }

let expect m (req : P.request) : P.response =
  match req with
  | Search { key } -> if m.vals.(key) = absent then Absent else Found m.vals.(key)
  | Insert { key; value } ->
      if m.vals.(key) <> absent then Duplicate
      else begin
        m.vals.(key) <- value;
        m.live <- m.live + 1;
        Inserted
      end
  | Delete { key } ->
      if m.vals.(key) = absent then Absent
      else begin
        m.vals.(key) <- absent;
        m.live <- m.live - 1;
        Deleted
      end
  | Range { lo; hi } ->
      let acc = ref [] in
      for k = min hi (Array.length m.vals - 1) downto max lo 0 do
        if m.vals.(k) <> absent then acc := (k, m.vals.(k)) :: !acc
      done;
      Pairs !acc
  | Commit | Stats | Subscribe _ | Snapshot _ ->
      invalid_arg "Stream.expect: not a workload request"

let is_mutation (r : P.request) =
  match r with Insert _ | Delete _ -> true | _ -> false
