(** Simulated-crash harness for the durable store.

    Runs a deterministic Sagiv-tree workload over the full
    {!Repro_storage.Paged_store} stack on a {e crash-shadow}
    {!Repro_storage.Paged_file} (writes not covered by an fsync are lost
    at the crash), with one {!Repro_storage.Failpoint} site armed to kill
    the simulated process at an exact IO boundary. After the crash it
    harvests the durable image, reopens it cold, and checks:

    - the store opens (falling back across header slots, degrading a
      damaged free chain to a leak — never refusing an intact tree);
    - {!Repro_core.Validate} finds a structurally sound tree;
    - the recovered contents are {e exactly} one of the two states the
      crash-atomic sync permits: the last acknowledged sync, or — only
      when the crash hit inside a sync after its commit fsync — the
      in-flight one. Acknowledged data is never lost, and no value is
      ever torn or half-applied.

    The oracle is a sequential model: the workload runs single-domain,
    so the key set at each sync is known exactly. In WAL durability
    mode ({!run_wal_tree} and friends) the same oracle tightens to the
    {e group-commit} point: the store runs on a shadow data device
    {e and} a shadow log device, recovery replays the log's crash image,
    and the recovered contents must be exactly the last acknowledged
    commit (or the in-flight one when the crash landed past its log
    fsync). See doc/RECOVERY.md for the crash model and its
    assumptions. *)

open Repro_storage

module PS = Paged_store.Make (Key.Int)
module Sg = Repro_core.Sagiv.Make_on_store (Key.Int) (PS)
module V = Repro_core.Validate.Make_on_store (Key.Int) (PS)

type config = {
  cache_pages : int;  (** decoded-node cache size (small → eviction traffic) *)
}

type outcome = {
  site : string;  (** armed failpoint site *)
  policy : string;
  config : config;
  crashed : bool;  (** false when the armed policy never fired *)
  ops : int;  (** workload ops issued before the crash (or all of them) *)
  acked_syncs : int;  (** syncs that returned before the crash *)
  recovered_keys : int;
  recovered_gen : int;  (** header generation the reopen landed on *)
}

let pp_outcome o =
  Printf.sprintf "%-28s %-14s cache=%-3d %s ops=%-4d syncs=%-2d -> %d keys @gen %d"
    o.site o.policy o.config.cache_pages
    (if o.crashed then "CRASH" else "clean")
    o.ops o.acked_syncs o.recovered_keys o.recovered_gen

let fail fmt = Printf.ksprintf failwith fmt

let payload k = (k * 7) + 1

let leaf i =
  {
    Node.level = 0;
    keys = [| i |];
    ptrs = [| payload i |];
    low = Bound.Neg_inf;
    high = Bound.Pos_inf;
    link = None;
    is_root = false;
    state = Node.Live;
  }

let policy_name : Failpoint.policy -> string = function
  | Failpoint.Off -> "off"
  | Failpoint.Error { every } -> Printf.sprintf "error/%d" every
  | Failpoint.Short_write { every } -> Printf.sprintf "short/%d" every
  | Failpoint.Torn_write -> "torn"
  | Failpoint.Crash_after n -> Printf.sprintf "crash@%d" n

(* Reopen the durable image a crash at this instant would leave behind
   and hand back a cold tree over it. All failpoints are disarmed first:
   the dead process's policies must not outlive it into recovery. *)
let recover ~cache_pages pfile =
  let image = Paged_file.crash_image pfile in
  Failpoint.reset ();
  let store = PS.open_from ~cache_pages image in
  let tree = Sg.open_existing store in
  (store, tree)

let check_valid tree ~what =
  let r = V.check tree in
  if not (Repro_core.Validate.ok r) then
    fail "%s: recovered tree invalid: %s" what
      (String.concat "; " r.Repro_core.Validate.errors)

(* The recovered pairs must be exactly [m] (same keys, same payloads). *)
let matches_model recovered (m : (int, int) Hashtbl.t) =
  List.length recovered = Hashtbl.length m
  && List.for_all (fun (k, v) -> Hashtbl.find_opt m k = Some v) recovered

(* Key sampler for the crash workloads. [Uniform] unscrambled is
   bit-identical to the historical [Splitmix.int rng space] draw, so the
   default runs replay the exact seeded histories they always had; a
   [Zipfian] dist turns the same oracle loose on hot-key traffic. *)
let key_sampler ~space dist =
  let scramble = dist <> Repro_util.Distribution.Uniform in
  Repro_util.Distribution.create ~scramble ~space dist

(** One tree-level crash run: preload + clean sync, arm [site] with
    [policy], run a seeded insert/delete/search mix ([dist] keys, default
    uniform) syncing every 25 ops, catch the simulated death, recover,
    and hold recovery to the oracle. A run where the policy never fires
    ends with a clean close and an exact-contents check instead. *)
let run_tree ?(ops = 400) ?(seed = 42) ?(dist = Repro_util.Distribution.Uniform)
    ~site ~policy (config : config) =
  Failpoint.reset ();
  let pfile = Paged_file.create_shadow ~page_size:512 () in
  let store = PS.create_on ~cache_pages:config.cache_pages pfile in
  let tree = Sg.create ~order:4 ~store () in
  let c = Sg.ctx ~slot:0 in
  let model : (int, int) Hashtbl.t = Hashtbl.create 256 in
  (* Preload and sync before arming: the durable image always holds a
     valid committed generation when the faults switch on. *)
  for k = 0 to 49 do
    if k mod 2 = 0 then begin
      ignore (Sg.insert tree c k (payload k));
      Hashtbl.replace model k (payload k)
    end
  done;
  Sg.flush tree;
  (* [committed]: model at the last sync that returned. [inflight]: model
     at a sync call still in progress — a crash inside a sync may land
     either side of its commit fsync, so both states are legal. *)
  let committed = ref (Hashtbl.copy model) in
  let inflight = ref None in
  let acked = ref 0 in
  let issued = ref 0 in
  let crashed = ref false in
  Failpoint.set site policy;
  (try
     let rng = Repro_util.Splitmix.create seed in
     let keys = key_sampler ~space:200 dist in
     for i = 1 to ops do
       issued := i;
       let k = Repro_util.Distribution.sample keys rng in
       (match Repro_util.Splitmix.int rng 10 with
       | 0 | 1 ->
           if Sg.delete tree c k then Hashtbl.remove model k
       | 2 -> ignore (Sg.search tree c k)
       | _ -> (
           match Sg.insert tree c k (payload k) with
           | `Ok -> Hashtbl.replace model k (payload k)
           | `Duplicate -> ()));
       if i mod 25 = 0 then begin
         inflight := Some (Hashtbl.copy model);
         Sg.flush tree;
         committed := Hashtbl.copy model;
         inflight := None;
         incr acked
       end
     done
   with Failpoint.Crash _ -> crashed := true);
  let crashed = !crashed || Failpoint.is_crashed () in
  if not crashed then begin
    (* Policy never fired: finish cleanly so the run still checks the
       straight-line durability path. *)
    Failpoint.reset ();
    Sg.flush tree;
    committed := Hashtbl.copy model;
    inflight := None
  end;
  let store2, tree2 = recover ~cache_pages:config.cache_pages pfile in
  check_valid tree2 ~what:site;
  let recovered = Sg.to_list tree2 in
  let ok =
    matches_model recovered !committed
    || match !inflight with Some m -> matches_model recovered m | None -> false
  in
  if not ok then
    fail "%s (%s): recovered %d keys matching neither the %d committed nor the in-flight sync"
      site (policy_name policy) (List.length recovered)
      (Hashtbl.length !committed);
  {
    site;
    policy = policy_name policy;
    config;
    crashed;
    ops = !issued;
    acked_syncs = !acked;
    recovered_keys = List.length recovered;
    recovered_gen = PS.generation store2;
  }

(** Torn header-slot write: with nothing else dirty, the first write of a
    sync is the staged header — tear it mid-page and die. The slot being
    torn is the {e alternate} one, so recovery never loses the committed
    generation: depending on where the seeded tear lands, the torn slot
    either fails its checksum (or reproduces stale-but-valid older-gen
    bytes, which the committed slot outranks) and recovery falls back, or
    the tear covered every byte that differs and the staged header
    physically landed in full, in which case the newer generation — with
    byte-identical contents — validates and wins. Runs a spread of RNG
    seeds and requires both branches to occur. *)
let run_torn_header (config : config) =
  let seeds = 24 in
  let committed = ref 0 and fell_back = ref 0 and landed = ref 0 in
  for s = 1 to seeds do
    Failpoint.reset ();
    Failpoint.seed (0x7EAD + s);
    let pfile = Paged_file.create_shadow ~page_size:512 () in
    let store = PS.create_on ~cache_pages:config.cache_pages pfile in
    let tree = Sg.create ~order:4 ~store () in
    let c = Sg.ctx ~slot:0 in
    let model = Hashtbl.create 64 in
    for k = 0 to 59 do
      ignore (Sg.insert tree c k (payload k));
      Hashtbl.replace model k (payload k)
    done;
    Sg.flush tree;
    Sg.flush tree;
    (* both slots now hold valid headers *)
    let committed_gen = PS.generation store in
    committed := committed_gen;
    Failpoint.set "paged_file.pwrite" Failpoint.Torn_write;
    (match Sg.flush tree with
    | () -> fail "torn header write: sync must crash"
    | exception Failpoint.Crash _ -> ());
    let store2, tree2 = recover ~cache_pages:config.cache_pages pfile in
    check_valid tree2 ~what:"torn header";
    if not (matches_model (Sg.to_list tree2) model) then
      fail "torn header (seed %d): recovered contents differ from the committed state"
        s;
    let g = PS.generation store2 in
    if g = committed_gen then incr fell_back
    else if g = committed_gen + 1 then incr landed
    else
      fail "torn header (seed %d): recovered generation %d, committed %d" s g
        committed_gen
  done;
  if !fell_back = 0 then
    fail "torn header: no seed exercised the fall-back-to-committed-slot path";
  if !landed = 0 then
    fail "torn header: no seed exercised the fully-landed-tear path";
  {
    site = "paged_file.pwrite";
    policy = "torn(header)";
    config;
    crashed = true;
    ops = seeds;
    acked_syncs = 2 * seeds;
    recovered_keys = 60;
    recovered_gen = !committed;
  }

(** Torn free-chain write. Staged so the page being torn is {e free} in
    the committed generation (the chain is re-written over pages that
    were already free-chain entries): tearing it can damage only the
    chain, which recovery degrades to a leak — never the tree. *)
let run_torn_chain () =
  Failpoint.reset ();
  let pfile = Paged_file.create_shadow ~page_size:512 () in
  let store = PS.create_on ~cache_pages:8 pfile in
  let live = [ 0; 2; 4 ] and doomed = [ 1; 3; 5 ] in
  let ptrs = List.init 6 (fun i -> (i, PS.alloc store (leaf i))) in
  let ptr_of i = List.assoc i ptrs in
  PS.sync store;
  List.iter (fun i -> PS.release store (ptr_of i)) doomed;
  PS.sync store;
  let committed_gen = PS.generation store in
  (* Dirty the free list without changing its membership: pop the head
     and push it straight back. The armed sync then re-writes the chain
     over pages that already hold committed chain entries. *)
  let p = PS.reserve store in
  PS.release store p;
  Failpoint.set "paged_file.pwrite" Failpoint.Torn_write;
  (match PS.sync store with
  | () -> fail "torn chain write: sync must crash"
  | exception Failpoint.Crash _ -> ());
  let image = Paged_file.crash_image pfile in
  Failpoint.reset ();
  let store2 = PS.open_from ~cache_pages:8 image in
  if PS.generation store2 <> committed_gen then
    fail "torn chain: recovered generation %d, expected %d"
      (PS.generation store2) committed_gen;
  (* Live pages must decode exactly; the chain either survived (the tear
     reproduced a valid committed entry) or leaked to empty. *)
  List.iter
    (fun i ->
      let n = PS.get store2 (ptr_of i) in
      if n.Node.keys <> [| i |] || n.Node.ptrs <> [| payload i |] then
        fail "torn chain: live page %d corrupted" i)
    live;
  let freed = PS.total_freed store2 and alloc = PS.total_allocated store2 in
  if alloc - freed <> List.length live then
    fail "torn chain: allocator accounting off (alloc %d, freed %d)" alloc freed;
  let reserved = PS.reserve store2 in
  List.iter
    (fun i ->
      if reserved = ptr_of i then fail "torn chain: recycled a live page")
    live;
  {
    site = "paged_file.pwrite";
    policy = "torn(chain)";
    config = { cache_pages = 8 };
    crashed = true;
    ops = 0;
    acked_syncs = 2;
    recovered_keys = List.length live;
    recovered_gen = PS.generation store2;
  }

(** Short writes every other page write: the retry loops in
    {!Repro_storage.Paged_file} must make them invisible — the workload
    completes, and the recovered image is byte-exact. *)
let run_short_writes (config : config) =
  Failpoint.reset ();
  let pfile = Paged_file.create_shadow ~page_size:512 () in
  let store = PS.create_on ~cache_pages:config.cache_pages pfile in
  let tree = Sg.create ~order:4 ~store () in
  let c = Sg.ctx ~slot:0 in
  let model = Hashtbl.create 256 in
  Failpoint.set "paged_file.pwrite" (Failpoint.Short_write { every = 2 });
  let rng = Repro_util.Splitmix.create 7 in
  for i = 1 to 300 do
    let k = Repro_util.Splitmix.int rng 150 in
    (if Repro_util.Splitmix.int rng 5 = 0 then begin
       if Sg.delete tree c k then Hashtbl.remove model k
     end
     else
       match Sg.insert tree c k (payload k) with
       | `Ok -> Hashtbl.replace model k (payload k)
       | `Duplicate -> ());
    if i mod 50 = 0 then Sg.flush tree
  done;
  Sg.flush tree;
  let store2, tree2 = recover ~cache_pages:config.cache_pages pfile in
  check_valid tree2 ~what:"short writes";
  if not (matches_model (Sg.to_list tree2) model) then
    fail "short writes: contents differ after reopen";
  {
    site = "paged_file.pwrite";
    policy = "short/2";
    config;
    crashed = false;
    ops = 300;
    acked_syncs = 6;
    recovered_keys = Hashtbl.length model;
    recovered_gen = PS.generation store2;
  }

let expect_injected what f =
  match f () with
  | _ -> fail "%s: expected an injected error" what
  | exception Failpoint.Injected _ -> ()

(** Injected-error battery at the store level: every remaining site
    raises once, the store survives, a disarmed retry succeeds, and the
    final image is complete — no page is silently dropped on the error
    path (the eviction victim goes back into its cache slot, [sync]
    stays retryable). *)
let run_error_paths () =
  Failpoint.reset ();
  let pfile = Paged_file.create_shadow ~page_size:512 () in
  let store = PS.create_on ~cache_pages:4 pfile in
  let n = 24 in
  let ptrs = Array.init n (fun i -> PS.alloc store (leaf i)) in
  PS.sync store;

  (* fault + pread: a cache miss fails once, then succeeds on retry *)
  let miss_one site =
    Failpoint.set site (Failpoint.Error { every = 1 });
    let victim =
      (* with cache_pages = 4, most of the 24 pages are not resident *)
      let rec find i =
        if i >= n then fail "%s: no cache miss found" site
        else
          match PS.get store ptrs.(i) with
          | _ -> find (i + 1)
          | exception Failpoint.Injected _ -> i
      in
      find 0
    in
    Failpoint.set site Failpoint.Off;
    let node = PS.get store ptrs.(victim) in
    if node.Node.keys <> [| victim |] then
      fail "%s: retried fault returned the wrong node" site
  in
  miss_one "paged_store.fault";
  miss_one "paged_file.pread";

  (* evict: the inline write-back error surfaces, but the victim goes
     back into its cache slot — the next sync persists it. Every page
     put before the error must hold its new leaf in a crash image taken
     right after that sync. *)
  Failpoint.set "paged_store.evict" (Failpoint.Error { every = 1 });
  let evicted_up_to =
    let rec put_from i =
      if i >= n then
        fail "paged_store.evict: injected eviction error never surfaced"
      else
        match PS.put store ptrs.(i) (leaf (i + 100)) with
        | () -> put_from (i + 1)
        | exception Failpoint.Injected _ -> i
    in
    put_from 0
  in
  Failpoint.set "paged_store.evict" Failpoint.Off;
  PS.sync store;
  (* last leaf put to page [i] by the stages above *)
  let expect i = if i <= evicted_up_to then i + 100 else i in
  let check_image ~what ~from =
    let image = PS.open_from ~cache_pages:8 (Paged_file.crash_image pfile) in
    for i = from to n - 1 do
      let node = PS.get image ptrs.(i) in
      if node.Node.keys <> [| expect i |] then
        fail "error paths: page %d lost its last update (%s)" i what
    done
  in
  check_image ~what:"failed eviction write-back" ~from:0;

  (* fsync and each sync phase: sync raises once, then a retry commits *)
  let sync_once site =
    Failpoint.set site (Failpoint.Error { every = 1 });
    expect_injected site (fun () -> PS.sync store);
    Failpoint.set site Failpoint.Off;
    PS.sync store
  in
  sync_once "paged_file.fsync";
  sync_once "paged_store.sync.data";
  sync_once "paged_store.sync.header";
  sync_once "paged_store.sync.commit";
  PS.release store ptrs.(0);
  sync_once "paged_store.sync.chain";

  (* everything must have survived the error storm *)
  Failpoint.reset ();
  check_image ~what:"across the error storm" ~from:1

(* ---------- WAL durability mode ---------- *)

let data_page_size = 512
let wal_page_size = Wal.log_page_size ~data_page_size

(* WAL-mode recovery: harvest the crash image of {e both} devices — the
   data file and the log — and reopen through the replay path. *)
let recover_wal ~cache_pages pfile lfile =
  let image = Paged_file.crash_image pfile in
  let limage = Paged_file.crash_image lfile in
  Failpoint.reset ();
  let store = PS.open_from ~cache_pages ~wal:limage image in
  let tree = Sg.open_existing store in
  (store, tree)

(** The WAL-mode analog of {!run_tree}: the store runs on a shadow data
    device plus a shadow log device, the workload group-commits every 5
    ops ([Sg.commit]) and checkpoints every 100 ([Sg.flush]), and the
    oracle tightens to the {e commit} point — recovery must land exactly
    on the last acknowledged commit (or the in-flight one, when the
    crash hit a commit past its log fsync). [dist] (default uniform)
    selects the key stream; a Zipfian dist aims the commit-point oracle
    at hot-key traffic. *)
let run_wal_tree ?(ops = 400) ?(seed = 1042)
    ?(dist = Repro_util.Distribution.Uniform) ~site ~policy (config : config) =
  Failpoint.reset ();
  let pfile = Paged_file.create_shadow ~page_size:data_page_size () in
  let lfile = Paged_file.create_shadow ~page_size:wal_page_size () in
  let store = PS.create_on ~cache_pages:config.cache_pages ~wal:lfile pfile in
  let tree = Sg.create ~order:4 ~store () in
  let c = Sg.ctx ~slot:0 in
  let model : (int, int) Hashtbl.t = Hashtbl.create 256 in
  for k = 0 to 49 do
    if k mod 2 = 0 then begin
      ignore (Sg.insert tree c k (payload k));
      Hashtbl.replace model k (payload k)
    end
  done;
  Sg.flush tree;
  (* a committed checkpoint generation exists before the faults arm *)
  let committed = ref (Hashtbl.copy model) in
  let inflight = ref None in
  let acked = ref 0 in
  let issued = ref 0 in
  let crashed = ref false in
  Failpoint.set site policy;
  (try
     let rng = Repro_util.Splitmix.create seed in
     let keys = key_sampler ~space:200 dist in
     for i = 1 to ops do
       issued := i;
       let k = Repro_util.Distribution.sample keys rng in
       (match Repro_util.Splitmix.int rng 10 with
       | 0 | 1 ->
           if Sg.delete tree c k then Hashtbl.remove model k
       | 2 -> ignore (Sg.search tree c k)
       | _ -> (
           match Sg.insert tree c k (payload k) with
           | `Ok -> Hashtbl.replace model k (payload k)
           | `Duplicate -> ()));
       (* group commit every 5 ops; every 100th op checkpoints instead,
          so each run crosses both durability mechanisms *)
       if i mod 5 = 0 then begin
         inflight := Some (Hashtbl.copy model);
         if i mod 100 = 0 then Sg.flush tree else Sg.commit tree;
         committed := Hashtbl.copy model;
         inflight := None;
         incr acked
       end
     done
   with Failpoint.Crash _ -> crashed := true);
  let crashed = !crashed || Failpoint.is_crashed () in
  if not crashed then begin
    Failpoint.reset ();
    Sg.commit tree;
    committed := Hashtbl.copy model;
    inflight := None
  end;
  let store2, tree2 = recover_wal ~cache_pages:config.cache_pages pfile lfile in
  check_valid tree2 ~what:site;
  let recovered = Sg.to_list tree2 in
  let ok =
    matches_model recovered !committed
    || match !inflight with Some m -> matches_model recovered m | None -> false
  in
  if not ok then
    fail
      "%s (%s, wal): recovered %d keys matching neither the %d committed nor the in-flight commit"
      site (policy_name policy) (List.length recovered)
      (Hashtbl.length !committed);
  {
    site;
    policy = policy_name policy ^ "+wal";
    config;
    crashed;
    ops = !issued;
    acked_syncs = !acked;
    recovered_keys = List.length recovered;
    recovered_gen = PS.generation store2;
  }

(** The partition-layer analog of {!run_wal_tree}: [shards] fully
    independent store+WAL pairs on their own shadow devices, keys routed
    by {!Repro_storage.Shard_router}, and every 5th op a {e multi-shard
    batch commit} — the shards the batch touched commit in shard order,
    so an armed crash lands mid-batch: shards before the victim are at
    their new durable state, the victim either side of its log fsync,
    shards after it still at their old state. Each shard is recovered
    from its own crash images (asserting its recorded [(i, N)] identity)
    and held to its {e own} commit-point oracle; recovered keys must
    also route back to the shard that held them. *)
let run_sharded_wal ?(ops = 400) ?(seed = 2042) ?(shards = 4) ~site ~policy
    (config : config) =
  Failpoint.reset ();
  let pfiles =
    Array.init shards (fun _ ->
        Paged_file.create_shadow ~page_size:data_page_size ())
  in
  let lfiles =
    Array.init shards (fun _ ->
        Paged_file.create_shadow ~page_size:wal_page_size ())
  in
  let stores =
    Array.init shards (fun i ->
        PS.create_on ~shard:(i, shards) ~cache_pages:config.cache_pages
          ~wal:lfiles.(i) pfiles.(i))
  in
  let trees = Array.map (fun store -> Sg.create ~order:4 ~store ()) stores in
  let c = Sg.ctx ~slot:0 in
  let route k = Shard_router.shard_of ~shards k in
  let models : (int, int) Hashtbl.t array =
    Array.init shards (fun _ -> Hashtbl.create 64)
  in
  for k = 0 to 49 do
    if k mod 2 = 0 then begin
      let s = route k in
      ignore (Sg.insert trees.(s) c k (payload k));
      Hashtbl.replace models.(s) k (payload k)
    end
  done;
  Array.iter Sg.flush trees;
  (* every shard holds a committed checkpoint before the faults arm *)
  let committed = Array.map (fun m -> ref (Hashtbl.copy m)) models in
  let inflight : (int, int) Hashtbl.t option array = Array.make shards None in
  let touched = Array.make shards false in
  let acked = ref 0 in
  let issued = ref 0 in
  let crashed = ref false in
  Failpoint.set site policy;
  (try
     let rng = Repro_util.Splitmix.create seed in
     for i = 1 to ops do
       issued := i;
       let k = Repro_util.Splitmix.int rng 400 in
       let s = route k in
       (match Repro_util.Splitmix.int rng 10 with
       | 0 | 1 ->
           if Sg.delete trees.(s) c k then begin
             Hashtbl.remove models.(s) k;
             touched.(s) <- true
           end
       | 2 -> ignore (Sg.search trees.(s) c k)
       | _ -> (
           match Sg.insert trees.(s) c k (payload k) with
           | `Ok ->
               Hashtbl.replace models.(s) k (payload k);
               touched.(s) <- true
           | `Duplicate -> ()));
       if i mod 5 = 0 then
         (* multi-shard batch commit: touched shards in shard order, each
            acknowledged separately (every 100th op checkpoints instead) *)
         for s = 0 to shards - 1 do
           if touched.(s) then begin
             inflight.(s) <- Some (Hashtbl.copy models.(s));
             if i mod 100 = 0 then Sg.flush trees.(s) else Sg.commit trees.(s);
             committed.(s) := Hashtbl.copy models.(s);
             inflight.(s) <- None;
             incr acked;
             touched.(s) <- false
           end
         done
     done
   with Failpoint.Crash _ -> crashed := true);
  let crashed = !crashed || Failpoint.is_crashed () in
  if not crashed then begin
    Failpoint.reset ();
    Array.iteri
      (fun s tree ->
        Sg.commit tree;
        committed.(s) := Hashtbl.copy models.(s);
        inflight.(s) <- None)
      trees
  end;
  let images =
    Array.init shards (fun i ->
        (Paged_file.crash_image pfiles.(i), Paged_file.crash_image lfiles.(i)))
  in
  Failpoint.reset ();
  let recovered_total = ref 0 in
  let gen = ref 0 in
  Array.iteri
    (fun s (image, limage) ->
      let store2 =
        PS.open_from ~expect_shard:(s, shards)
          ~cache_pages:config.cache_pages ~wal:limage image
      in
      let tree2 = Sg.open_existing store2 in
      check_valid tree2 ~what:(Printf.sprintf "%s (shard %d/%d)" site s shards);
      let recovered = Sg.to_list tree2 in
      let ok =
        matches_model recovered !(committed.(s))
        ||
        match inflight.(s) with
        | Some m -> matches_model recovered m
        | None -> false
      in
      if not ok then
        fail
          "%s (%s, shard %d/%d): recovered %d keys matching neither the %d \
           committed nor the in-flight commit"
          site (policy_name policy) s shards (List.length recovered)
          (Hashtbl.length !(committed.(s)));
      (* isolation: every recovered key routes back to this shard *)
      List.iter
        (fun (k, _) ->
          if route k <> s then
            fail "sharded wal: key %d recovered on shard %d but routes to %d" k
              s (route k))
        recovered;
      recovered_total := !recovered_total + List.length recovered;
      gen := max !gen (PS.generation store2))
    images;
  {
    site;
    policy = Printf.sprintf "%s+wal.x%d" (policy_name policy) shards;
    config;
    crashed;
    ops = !issued;
    acked_syncs = !acked;
    recovered_keys = !recovered_total;
    recovered_gen = !gen;
  }

(** Torn log append: with the cache big enough to hold the whole tree,
    the only device writes a group commit issues are log records — so a
    torn write is guaranteed to land on a record, never on the tree.
    Replay must stop at the torn record and recovery must land exactly
    on the last acknowledged commit. *)
let run_wal_torn_append () =
  Failpoint.reset ();
  let pfile = Paged_file.create_shadow ~page_size:data_page_size () in
  let lfile = Paged_file.create_shadow ~page_size:wal_page_size () in
  let store = PS.create_on ~cache_pages:256 ~wal:lfile pfile in
  let tree = Sg.create ~order:4 ~store () in
  let c = Sg.ctx ~slot:0 in
  let model = Hashtbl.create 128 in
  for k = 0 to 39 do
    ignore (Sg.insert tree c k (payload k));
    Hashtbl.replace model k (payload k)
  done;
  Sg.flush tree;
  (* a committed batch on top of the checkpoint *)
  for k = 40 to 59 do
    ignore (Sg.insert tree c k (payload k));
    Hashtbl.replace model k (payload k)
  done;
  Sg.commit tree;
  let committed = Hashtbl.copy model in
  for k = 60 to 79 do
    ignore (Sg.insert tree c k (payload k))
  done;
  Failpoint.set "paged_file.pwrite" Failpoint.Torn_write;
  (match Sg.commit tree with
  | () -> fail "torn log append: commit must crash"
  | exception Failpoint.Crash _ -> ());
  let store2, tree2 = recover_wal ~cache_pages:32 pfile lfile in
  check_valid tree2 ~what:"torn log append";
  if not (matches_model (Sg.to_list tree2) committed) then
    fail "torn log append: recovery must land on the pre-tear commit";
  {
    site = "paged_file.pwrite";
    policy = "torn(wal)";
    config = { cache_pages = 256 };
    crashed = true;
    ops = 80;
    acked_syncs = 2;
    recovered_keys = Hashtbl.length committed;
    recovered_gen = PS.generation store2;
  }

(** Crash at the group-commit fsync: [wal.commit] fires {e before} the
    log fsync, so the whole batch is still volatile — recovery must land
    deterministically on the previous acknowledged commit, never on a
    half-promoted batch. *)
let run_wal_commit_crash () =
  Failpoint.reset ();
  let pfile = Paged_file.create_shadow ~page_size:data_page_size () in
  let lfile = Paged_file.create_shadow ~page_size:wal_page_size () in
  let store = PS.create_on ~cache_pages:32 ~wal:lfile pfile in
  let tree = Sg.create ~order:4 ~store () in
  let c = Sg.ctx ~slot:0 in
  let model = Hashtbl.create 128 in
  for k = 0 to 29 do
    ignore (Sg.insert tree c k (payload k));
    Hashtbl.replace model k (payload k)
  done;
  Sg.flush tree;
  for k = 30 to 49 do
    ignore (Sg.insert tree c k (payload k));
    Hashtbl.replace model k (payload k)
  done;
  Sg.commit tree;
  let committed = Hashtbl.copy model in
  for k = 50 to 69 do
    ignore (Sg.insert tree c k (payload k))
  done;
  Failpoint.set "wal.commit" (Failpoint.Crash_after 1);
  (match Sg.commit tree with
  | () -> fail "commit-fsync crash: commit must crash"
  | exception Failpoint.Crash _ -> ());
  let store2, tree2 = recover_wal ~cache_pages:32 pfile lfile in
  check_valid tree2 ~what:"commit-fsync crash";
  if not (matches_model (Sg.to_list tree2) committed) then
    fail "commit-fsync crash: recovery must land on the previous commit";
  {
    site = "wal.commit";
    policy = "crash@1(fsync)";
    config = { cache_pages = 32 };
    crashed = true;
    ops = 70;
    acked_syncs = 2;
    recovered_keys = Hashtbl.length committed;
    recovered_gen = PS.generation store2;
  }

(** Crash in the middle of recovery replay itself, then recover again:
    replay is a read-only scan (page images install only after it
    completes), so a second attempt over the same images must succeed
    and land on the same state — recovery is idempotent. *)
let run_wal_replay_crash () =
  Failpoint.reset ();
  let pfile = Paged_file.create_shadow ~page_size:data_page_size () in
  let lfile = Paged_file.create_shadow ~page_size:wal_page_size () in
  let store = PS.create_on ~cache_pages:32 ~wal:lfile pfile in
  let tree = Sg.create ~order:4 ~store () in
  let c = Sg.ctx ~slot:0 in
  let model = Hashtbl.create 128 in
  for k = 0 to 29 do
    ignore (Sg.insert tree c k (payload k));
    Hashtbl.replace model k (payload k)
  done;
  Sg.flush tree;
  for k = 30 to 59 do
    ignore (Sg.insert tree c k (payload k));
    Hashtbl.replace model k (payload k)
  done;
  Sg.commit tree;
  let committed = Hashtbl.copy model in
  for k = 60 to 69 do
    ignore (Sg.insert tree c k (payload k))
  done;
  Failpoint.set "wal.commit" (Failpoint.Crash_after 1);
  (match Sg.commit tree with
  | () -> fail "mid-replay crash: the setup commit must crash"
  | exception Failpoint.Crash _ -> ());
  let image = Paged_file.crash_image pfile in
  let limage = Paged_file.crash_image lfile in
  Failpoint.reset ();
  (* die two records into the replay scan *)
  Failpoint.set "wal.replay" (Failpoint.Crash_after 2);
  (match PS.open_from ~cache_pages:16 ~wal:limage image with
  | _ -> fail "mid-replay crash: recovery must crash"
  | exception Failpoint.Crash _ -> ());
  Failpoint.reset ();
  let store2 = PS.open_from ~cache_pages:16 ~wal:limage image in
  let tree2 = Sg.open_existing store2 in
  check_valid tree2 ~what:"mid-replay crash";
  if not (matches_model (Sg.to_list tree2) committed) then
    fail "mid-replay crash: the second recovery must land on the committed state";
  {
    site = "wal.replay";
    policy = "crash@2(replay)";
    config = { cache_pages = 16 };
    crashed = true;
    ops = 70;
    acked_syncs = 2;
    recovered_keys = Hashtbl.length committed;
    recovered_gen = PS.generation store2;
  }

(** Injected (non-fatal) errors on the WAL path: a failed log append or
    a failed commit fsync must surface to the caller and leave the store
    retryable — the leader's rollback merges the sealed batch back into
    the dirty table, so the retried commit covers every page, and the
    orphaned records of the failed attempt are overridden (last writer
    wins) by the retry. *)
let run_wal_error_paths () =
  Failpoint.reset ();
  let pfile = Paged_file.create_shadow ~page_size:data_page_size () in
  let lfile = Paged_file.create_shadow ~page_size:wal_page_size () in
  let store = PS.create_on ~cache_pages:32 ~wal:lfile pfile in
  let tree = Sg.create ~order:4 ~store () in
  let c = Sg.ctx ~slot:0 in
  let model = Hashtbl.create 128 in
  for k = 0 to 29 do
    ignore (Sg.insert tree c k (payload k));
    Hashtbl.replace model k (payload k)
  done;
  Sg.flush tree;
  let commit_once site =
    Failpoint.set site (Failpoint.Error { every = 1 });
    expect_injected site (fun () -> Sg.commit tree);
    Failpoint.set site Failpoint.Off;
    Sg.commit tree
  in
  for k = 30 to 44 do
    ignore (Sg.insert tree c k (payload k));
    Hashtbl.replace model k (payload k)
  done;
  commit_once "wal.append";
  for k = 45 to 59 do
    ignore (Sg.insert tree c k (payload k));
    Hashtbl.replace model k (payload k)
  done;
  commit_once "wal.commit";
  let store2, tree2 = recover_wal ~cache_pages:32 pfile lfile in
  check_valid tree2 ~what:"wal error paths";
  if not (matches_model (Sg.to_list tree2) model) then
    fail "wal error paths: retried commits lost data";
  ignore (PS.generation store2)

(** Multi-domain group-commit durability stress — regression cover for
    the install/seal ordering in {!Repro_storage.Paged_store}: several
    domains insert into disjoint key ranges and group-commit
    concurrently ([commit_batch] = the domain count, a sub-millisecond
    gather window), so leaders seal the dirty set while other domains
    are mid-[install]. The crash image taken after the last ack — {e no}
    final sync — must hold every acknowledged key. A note-before-publish
    order in [install] loses updates here: a leader sealing between the
    note and the publish logs the stale image while the swap removes the
    page from the live dirty set, so the installer's own commit targets
    a batch that no longer covers it — acking durability the log does
    not hold. Each run is a fresh store with a {e single} commit round
    per domain and a crash image taken immediately after — so every
    install is exposed (no later batch re-dirties its page and papers
    over the loss). Probabilistic (the window is a few instructions
    wide), but free of false positives: any run that trips it is a real
    loss. *)
let run_wal_commit_race ?(domains = 4) ?(runs = 20) ?(batch = 4) () =
  for run = 1 to runs do
    Failpoint.reset ();
    let pfile = Paged_file.create_shadow ~page_size:data_page_size () in
    let lfile = Paged_file.create_shadow ~page_size:wal_page_size () in
    let store =
      PS.create_on ~cache_pages:64 ~commit_interval:5e-4 ~commit_batch:domains
        ~wal:lfile pfile
    in
    let tree = Sg.create ~order:4 ~store () in
    (* a committed checkpoint generation exists before the traffic starts *)
    let c0 = Sg.ctx ~slot:0 in
    ignore (Sg.insert tree c0 (-1) (payload (-1)));
    Sg.flush tree;
    let worker d =
      let c = Sg.ctx ~slot:d in
      for i = 0 to batch - 1 do
        let k = (1_000_000 * d) + i in
        ignore (Sg.insert tree c k (payload k));
        (* per-insert commit: the key is acknowledged once this returns *)
        Sg.commit tree
      done
    in
    let ds =
      List.init domains (fun d -> Domain.spawn (fun () -> worker (d + 1)))
    in
    List.iter Domain.join ds;
    (* power cut: nothing past the last acked commit reaches the image *)
    let _store2, tree2 = recover_wal ~cache_pages:64 pfile lfile in
    check_valid tree2 ~what:"wal commit race";
    let recovered = Sg.to_list tree2 in
    let expect = 1 + (domains * batch) in
    if List.length recovered <> expect then
      fail "wal commit race (run %d): recovered %d keys, %d were acknowledged"
        run (List.length recovered) expect;
    if not (List.for_all (fun (k, v) -> v = payload k) recovered) then
      fail "wal commit race (run %d): recovered a torn payload" run
  done

(* ---------- replication: WAL shipping + promotion oracle ---------- *)

(* A harness-local follower: the same {!Wal.Apply} scan-one-record step
   the wire replica runs, over a private in-memory store. Promoted
   batches are only {e queued} while the primary is alive — they install
   at promotion time, after [Failpoint.reset] — because the harness's
   one global failpoint registry simulates one process: the follower is
   a different process, and its page installs must not trip the faults
   armed at the primary. *)
type follower = {
  f_store : PS.t;
  f_apply : Wal.Apply.t;
  mutable f_next : int;  (** next LSN to pull *)
  mutable f_pending : Wal.Apply.batch list;  (** promoted, newest first *)
}

let follower_create () =
  {
    f_store = PS.create_memory ~page_size:data_page_size ();
    f_apply = Wal.Apply.create ~data_page_size ();
    f_next = 0;
    f_pending = [];
  }

(* Feed one shipped log page; false = the stream ended (an invalid
   continuation — only legal at the torn tail of a crash image). *)
let follower_feed f page =
  match Wal.Apply.step f.f_apply page with
  | Wal.Apply.Reject _ -> false
  | Wal.Apply.Progress ->
      f.f_next <- Wal.Apply.next_lsn f.f_apply;
      true
  | Wal.Apply.Batch b ->
      f.f_pending <- b :: f.f_pending;
      f.f_next <- Wal.Apply.next_lsn f.f_apply;
      true

(* Pull everything durable from a live primary. Durable pages are
   covered by an fsync (or a checkpoint seal): a Reject here is a
   harness failure, never a legitimate stream end. *)
let follower_drain ~what store f =
  let rec loop () =
    match PS.wal_fetch store ~lsn:f.f_next ~max_pages:64 with
    | Wal.At_end -> ()
    | Wal.Stale -> fail "%s: follower fell out of the retention window" what
    | Wal.Pages { pages; next } ->
        List.iter
          (fun page ->
            if not (follower_feed f page) then
              fail "%s: durable shipped page rejected by the stream policy"
                what)
          pages;
        if f.f_next <> next then
          fail "%s: follower cursor %d disagrees with fetch next %d" what
            f.f_next next;
        loop ()
  in
  loop ()

(* Promotion: install every queued batch into the follower's store, in
   promotion order, and open a read-write tree over it. *)
let follower_promote f =
  List.iter
    (fun (b : Wal.Apply.batch) ->
      PS.apply_replicated f.f_store ~images:b.Wal.Apply.b_images
        ~meta:b.Wal.Apply.b_meta)
    (List.rev f.f_pending);
  f.f_pending <- [];
  Sg.open_existing f.f_store

(** The replication oracle: a primary on shadow devices streams its WAL
    to a follower (drained synchronously after every acknowledged
    commit), an armed failpoint kills the primary mid-run, the follower
    catches up from the log device's {e crash image} — exactly what a
    replica that kept pulling until the primary died would have
    received — and is promoted. The promoted follower must (a) agree
    byte-for-byte with a cold recovery of the primary from the same
    images, and (b) hold the commit-point oracle: every acknowledged
    commit survives, plus at most the in-flight one. The traffic run
    never checkpoints, so the live log pass spans it whole and the
    catch-up can address crash-image pages by LSN directly. *)
let run_replication ?(ops = 300) ?(seed = 2042) ~site ~policy
    (config : config) =
  Failpoint.reset ();
  let pfile = Paged_file.create_shadow ~page_size:data_page_size () in
  let lfile = Paged_file.create_shadow ~page_size:wal_page_size () in
  let store = PS.create_on ~cache_pages:config.cache_pages ~wal:lfile pfile in
  let tree = Sg.create ~order:4 ~store () in
  let c = Sg.ctx ~slot:0 in
  let model : (int, int) Hashtbl.t = Hashtbl.create 256 in
  for k = 0 to 49 do
    if k mod 2 = 0 then begin
      ignore (Sg.insert tree c k (payload k));
      Hashtbl.replace model k (payload k)
    end
  done;
  Sg.flush tree;
  (* the seed checkpoint sealed pass 0 into a segment; the live pass
     starts here and — no checkpoint below — spans the whole run *)
  let live_base = PS.wal_durable_lsn store + 1 in
  let f = follower_create () in
  follower_drain ~what:site store f;
  if f.f_next <> live_base then
    fail "%s: follower drained to LSN %d, live pass starts at %d" site f.f_next
      live_base;
  let committed = ref (Hashtbl.copy model) in
  let inflight = ref None in
  let acked = ref 0 in
  let issued = ref 0 in
  let crashed = ref false in
  Failpoint.set site policy;
  (try
     let rng = Repro_util.Splitmix.create seed in
     for i = 1 to ops do
       issued := i;
       let k = Repro_util.Splitmix.int rng 200 in
       (match Repro_util.Splitmix.int rng 10 with
       | 0 | 1 -> if Sg.delete tree c k then Hashtbl.remove model k
       | 2 -> ignore (Sg.search tree c k)
       | _ -> (
           match Sg.insert tree c k (payload k) with
           | `Ok -> Hashtbl.replace model k (payload k)
           | `Duplicate -> ()));
       if i mod 3 = 0 then begin
         inflight := Some (Hashtbl.copy model);
         Sg.commit tree;
         committed := Hashtbl.copy model;
         inflight := None;
         incr acked;
         (* synchronous shipping: drain right after the ack — the
            follower only queues, so the armed faults cannot fire in it *)
         follower_drain ~what:site store f
       end
     done
   with Failpoint.Crash _ -> crashed := true);
  let crashed = !crashed || Failpoint.is_crashed () in
  if not crashed then begin
    Failpoint.reset ();
    Sg.commit tree;
    committed := Hashtbl.copy model;
    inflight := None;
    follower_drain ~what:site store f
  end;
  (* the primary is dead: harvest the log device's crash image (the
     data device's is taken inside [recover_wal] below) *)
  let limage = Paged_file.crash_image lfile in
  Failpoint.reset ();
  (* catch-up: feed the log image from the follower's cursor to the torn
     tail. Records past the last fsync were lost with the crash, so the
     scan ends at the first invalid continuation — stale pass-0 bytes
     (LSN regression) or a torn record — exactly like local replay. *)
  (let npages = Paged_file.pages limage in
   let pos = ref (f.f_next - live_base) in
   let feeding = ref true in
   while !feeding && !pos >= 0 && !pos < npages do
     if follower_feed f (Paged_file.read limage !pos) then incr pos
     else feeding := false
   done);
  let ftree = follower_promote f in
  check_valid ftree ~what:(site ^ " (promoted follower)");
  let freplica = Sg.to_list ftree in
  (* cold-recover the primary from the same images: the follower must
     agree exactly, and both must sit on the commit-point oracle *)
  let store2, tree2 = recover_wal ~cache_pages:config.cache_pages pfile lfile in
  check_valid tree2 ~what:(site ^ " (recovered primary)");
  let recovered = Sg.to_list tree2 in
  if freplica <> recovered then
    fail
      "%s (%s): promoted follower (%d keys) diverged from the recovered \
       primary (%d keys)"
      site (policy_name policy) (List.length freplica)
      (List.length recovered);
  let ok =
    matches_model recovered !committed
    || match !inflight with Some m -> matches_model recovered m | None -> false
  in
  if not ok then
    fail
      "%s (%s, repl): recovered %d keys matching neither the %d committed nor \
       the in-flight commit"
      site (policy_name policy) (List.length recovered)
      (Hashtbl.length !committed);
  {
    site;
    policy = policy_name policy ^ "+repl";
    config;
    crashed;
    ops = !issued;
    acked_syncs = !acked;
    recovered_keys = List.length freplica;
    recovered_gen = PS.generation store2;
  }

(** Point-in-time recovery: run commits and periodic checkpoints (so the
    history spans several sealed log segments), snapshot the model at
    every acknowledged commit together with the COMMIT record's LSN,
    then rebuild a fresh store by replaying the retained log from LSN 0
    {e up to} a mid-history target. The rebuilt tree must validate and
    match that snapshot exactly — acknowledged history is replayable to
    any commit boundary inside the retention window, across seal
    boundaries. *)
let run_wal_pitr ?(ops = 210) ?(seed = 5042) () =
  Failpoint.reset ();
  let pfile = Paged_file.create_shadow ~page_size:data_page_size () in
  let lfile = Paged_file.create_shadow ~page_size:wal_page_size () in
  let store = PS.create_on ~cache_pages:32 ~wal:lfile pfile in
  let tree = Sg.create ~order:4 ~store () in
  let c = Sg.ctx ~slot:0 in
  let model : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let snapshots = ref [] in
  (* (COMMIT lsn, model) at each ack, newest first *)
  let rng = Repro_util.Splitmix.create seed in
  for i = 1 to ops do
    let k = Repro_util.Splitmix.int rng 200 in
    (match Repro_util.Splitmix.int rng 10 with
    | 0 | 1 -> if Sg.delete tree c k then Hashtbl.remove model k
    | _ -> (
        match Sg.insert tree c k (payload k) with
        | `Ok -> Hashtbl.replace model k (payload k)
        | `Duplicate -> ()));
    if i mod 30 = 0 then Sg.flush tree (* seal a segment *)
    else if i mod 5 = 0 then begin
      Sg.commit tree;
      (* right after the ack the durable watermark is the batch's COMMIT
         record: a valid PITR target *)
      snapshots :=
        (PS.wal_durable_lsn store, Hashtbl.copy model) :: !snapshots
    end
  done;
  Sg.commit tree;
  let snaps = Array.of_list (List.rev !snapshots) in
  if Array.length snaps < 4 then fail "pitr: too few commit snapshots";
  let target_lsn, target_model = snaps.(Array.length snaps / 2) in
  let f = follower_create () in
  while f.f_next <= target_lsn do
    match PS.wal_fetch store ~lsn:f.f_next ~max_pages:16 with
    | Wal.At_end -> fail "pitr: log ended before target LSN %d" target_lsn
    | Wal.Stale ->
        fail "pitr: target LSN %d fell out of the retention window" target_lsn
    | Wal.Pages { pages; next = _ } ->
        List.iter
          (fun page ->
            if f.f_next <= target_lsn then
              if not (follower_feed f page) then
                fail "pitr: durable page rejected during replay-to-LSN")
          pages
  done;
  let ftree = follower_promote f in
  check_valid ftree ~what:"pitr";
  let recovered = Sg.to_list ftree in
  if not (matches_model recovered target_model) then
    fail "pitr: replay to LSN %d recovered %d keys, snapshot held %d"
      target_lsn (List.length recovered)
      (Hashtbl.length target_model);
  {
    site = "wal.pitr";
    policy = "replay-to-lsn";
    config = { cache_pages = 32 };
    crashed = false;
    ops;
    acked_syncs = Array.length snaps;
    recovered_keys = List.length recovered;
    recovered_gen = PS.generation f.f_store;
  }

(* ---- durable MVCC ---- *)

module MV = Repro_core.Mvcc.Make_on_store (Key.Int) (PS)

(* Full version-chain dump of a durable-MVCC store, sorted:
   [(key, [(epoch, value-or-tombstone) newest-first])]. Two recoveries
   of the same crash images must produce {e equal} dumps — chain replay
   is deterministic down to the version level, not just the newest. *)
let chain_dump mv =
  let records = MV.records mv in
  MV.T.to_list (MV.tree mv)
  |> List.map (fun (k, rptr) ->
         let chain =
           match Record_store.export records rptr with
           | Record_store.Slot_chain v ->
               let rec walk = function
                 | None -> []
                 | Some (v : int Record_store.version) ->
                     (v.Record_store.epoch, v.Record_store.value)
                     :: walk v.Record_store.prev
               in
               walk (Some v)
           | Record_store.Slot_empty | Record_store.Slot_sealed -> []
         in
         (k, chain))
  |> List.sort compare

(** {!run_wal_tree} over durable MVCC: version chains persist through
    the same WAL as the tree, snapshots stay pinned across group
    commits, vacuum prunes mid-run, and the armed crash lands anywhere
    in the log path. Recovery ({!MV.open_durable} over the replayed
    images) is held to three oracles: (1) the newest acked versions —
    current reads land exactly on the last acked commit or the in-flight
    one; (2) chain replay is deterministic — recovering the same images
    twice yields identical version chains; (3) versions pruned before an
    acked commit never resurrect, even when WAL replay re-installs a
    pre-prune page image past the checkpoint. *)
let run_mvcc_wal ?(ops = 400) ?(seed = 4042) ~site ~policy (config : config) =
  Failpoint.reset ();
  let pfile = Paged_file.create_shadow ~page_size:data_page_size () in
  let lfile = Paged_file.create_shadow ~page_size:wal_page_size () in
  let store = PS.create_on ~cache_pages:config.cache_pages ~wal:lfile pfile in
  let page_ints = max 32 ((PS.page_size store - 48) / 10) in
  let mv =
    MV.create_durable ~order:4 ~page_ints ~enc:Fun.id ~dec:Fun.id store
  in
  let c = MV.ctx ~slot:0 in
  let model : (int, int) Hashtbl.t = Hashtbl.create 256 in
  for k = 0 to 49 do
    if k mod 2 = 0 then begin
      MV.upsert mv c k (payload k);
      Hashtbl.replace model k (payload k)
    end
  done;
  MV.flush mv;
  let committed = ref (Hashtbl.copy model) in
  let inflight = ref None in
  (* the pruned-version ledger: identities vacuum dropped, pending until
     the drop rides an acked commit. Values are salted with the op index
     so every version of a key is distinguishable. *)
  let pending_pruned = ref [] in
  let committed_pruned : (int * int * int option, unit) Hashtbl.t =
    Hashtbl.create 64
  in
  let acked = ref 0 in
  let issued = ref 0 in
  let crashed = ref false in
  let snap = ref None in
  Failpoint.set site policy;
  (try
     let rng = Repro_util.Splitmix.create seed in
     let keys = key_sampler ~space:200 Repro_util.Distribution.Uniform in
     for i = 1 to ops do
       issued := i;
       let k = Repro_util.Distribution.sample keys rng in
       (match Repro_util.Splitmix.int rng 10 with
       | 0 -> if MV.delete mv c k then Hashtbl.remove model k
       | 1 -> ignore (MV.get mv c k)
       | _ ->
           let v = payload k + (i * 1000) in
           MV.upsert mv c k v;
           Hashtbl.replace model k v);
       (* a pin opened at +20 each century, held across several group
          commits, checked against its cut and dropped at +60 *)
       if i mod 100 = 20 && !snap = None then
         snap := Some (MV.snapshot mv, Hashtbl.copy model);
       if i mod 100 = 60 then begin
         match !snap with
         | Some (s, at_cut) ->
             for k = 0 to 199 do
               if Hashtbl.mem at_cut k || Hashtbl.mem model k then
                 let got = MV.snap_get mv s c k in
                 if got <> Hashtbl.find_opt at_cut k then
                   fail "%s (%s, mvcc): pinned snapshot drifted at key %d"
                     site (policy_name policy) k
             done;
             MV.release s;
             snap := None
         | None -> ()
       end;
       (* vacuum churn after the pin drops: record exactly which version
          identities the prune removed *)
       if i mod 100 = 70 then begin
         let before = chain_dump mv in
         ignore (MV.vacuum mv c);
         ignore (MV.reclaim mv);
         let after = Hashtbl.create 64 in
         List.iter
           (fun (k, chain) ->
             List.iter (fun (e, v) -> Hashtbl.replace after (k, e, v) ()) chain)
           (chain_dump mv);
         List.iter
           (fun (k, chain) ->
             List.iter
               (fun (e, v) ->
                 if not (Hashtbl.mem after (k, e, v)) then
                   pending_pruned := (k, e, v) :: !pending_pruned)
               chain)
           before
       end;
       if i mod 5 = 0 then begin
         inflight := Some (Hashtbl.copy model);
         if i mod 100 = 0 then MV.flush mv else MV.commit mv;
         committed := Hashtbl.copy model;
         inflight := None;
         List.iter
           (fun id -> Hashtbl.replace committed_pruned id ())
           !pending_pruned;
         pending_pruned := [];
         incr acked
       end
     done
   with Failpoint.Crash _ -> crashed := true);
  let crashed = !crashed || Failpoint.is_crashed () in
  if not crashed then begin
    Failpoint.reset ();
    (match !snap with Some (s, _) -> MV.release s | None -> ());
    MV.commit mv;
    committed := Hashtbl.copy model;
    List.iter (fun id -> Hashtbl.replace committed_pruned id ()) !pending_pruned;
    pending_pruned := [];
    inflight := None
  end;
  let recover_mvcc () =
    let image = Paged_file.crash_image pfile in
    let limage = Paged_file.crash_image lfile in
    Failpoint.reset ();
    let store2 =
      PS.open_from ~cache_pages:config.cache_pages ~wal:limage image
    in
    (store2, MV.open_durable ~enc:Fun.id ~dec:Fun.id store2)
  in
  let store2, mv2 = recover_mvcc () in
  check_valid (MV.tree mv2) ~what:site;
  (* (1) newest acked versions: current reads land on the last acked
     commit (or the in-flight one past its fsync) *)
  let recovered = MV.range mv2 c ~lo:min_int ~hi:max_int in
  let ok =
    matches_model recovered !committed
    || match !inflight with Some m -> matches_model recovered m | None -> false
  in
  if not ok then
    fail
      "%s (%s, mvcc): recovered %d live keys matching neither the %d committed nor the in-flight commit"
      site (policy_name policy) (List.length recovered)
      (Hashtbl.length !committed);
  (* (2) deterministic chain replay: a second recovery of the same
     images yields byte-identical version chains *)
  let dump1 = chain_dump mv2 in
  let _store3, mv3 = recover_mvcc () in
  if chain_dump mv3 <> dump1 then
    fail "%s (%s, mvcc): two recoveries of one crash image disagree on chains"
      site (policy_name policy);
  (* (3) no resurrection: every version pruned before an acked commit
     stays pruned across replay *)
  List.iter
    (fun (k, chain) ->
      List.iter
        (fun (e, v) ->
          if Hashtbl.mem committed_pruned (k, e, v) then
            fail
              "%s (%s, mvcc): version (key %d, epoch %d) pruned before an acked commit resurrected across recovery"
              site (policy_name policy) k e)
        chain)
    dump1;
  (* pins still work over the recovered store *)
  let s = MV.snapshot mv2 in
  List.iter
    (fun (k, v) ->
      if MV.snap_get mv2 s c k <> Some v then
        fail "%s (%s, mvcc): post-recovery snapshot misreads key %d" site
          (policy_name policy) k)
    recovered;
  MV.release s;
  {
    site;
    policy = policy_name policy ^ "+mvcc";
    config;
    crashed;
    ops = !issued;
    acked_syncs = !acked;
    recovered_keys = List.length recovered;
    recovered_gen = PS.generation store2;
  }

(** The whole battery: tree-level crash runs for every site × cache size in
    both durability modes (sync-everything, then WAL group commit
    against the commit-point oracle), then the targeted torn /
    short-write / commit-fsync / mid-replay / injected-error runs and
    the multi-domain group-commit stress.
    Returns the outcomes; raises on any violated invariant. After a
    battery, {!Repro_storage.Failpoint.unexercised} must be empty — the
    CLI and CI enforce it. *)
let battery ?(quick = false) ?(shards = 4) ?(log = fun _ -> ()) () =
  let small = { cache_pages = 8 } in
  let configs = if quick then [ small ] else [ small; { cache_pages = 64 } ] in
  let crash_ordinals = if quick then [ 1 ] else [ 1; 3; 7 ] in
  let sites =
    [
      "paged_file.pwrite";
      "paged_file.pread";
      "paged_file.fsync";
      "paged_store.fault";
      "paged_store.evict";
      "paged_store.sync.data";
      "paged_store.sync.header";
      "paged_store.sync.commit";
    ]
  in
  let outcomes = ref [] in
  let record o =
    log (pp_outcome o);
    outcomes := o :: !outcomes
  in
  List.iter
    (fun config ->
      List.iter
        (fun site ->
          List.iter
            (fun ordinal ->
              record
                (run_tree ~site ~policy:(Failpoint.Crash_after ordinal) config))
            crash_ordinals)
        sites)
    configs;
  (* the same sweep in WAL durability mode, against the commit-point
     oracle: the WAL's own sites plus the device and checkpoint sites
     the log path shares *)
  let wal_sites =
    [
      "wal.append";
      "wal.commit";
      "paged_file.pwrite";
      "paged_file.fsync";
      "paged_store.sync.header";
    ]
  in
  List.iter
    (fun config ->
      List.iter
        (fun site ->
          List.iter
            (fun ordinal ->
              record
                (run_wal_tree ~site ~policy:(Failpoint.Crash_after ordinal)
                   config))
            crash_ordinals)
        wal_sites)
    configs;
  (* the WAL sweep again through the partition layer: [shards]
     independent store+WAL pairs, batches spanning shards, crashes
     landing mid-multi-shard-commit, per-shard commit-point oracle *)
  if shards > 1 then
    List.iter
      (fun config ->
        List.iter
          (fun site ->
            List.iter
              (fun ordinal ->
                record
                  (run_sharded_wal ~shards ~site
                     ~policy:(Failpoint.Crash_after ordinal) config))
              crash_ordinals)
          wal_sites)
      [ small ];
  (* the same commit-point oracle under hot-key traffic: a Zipfian key
     stream hammers a handful of leaves, so crashes land amid repeated
     same-key updates — the regime batch dedup targets *)
  let zipf = Repro_util.Distribution.Zipfian 0.99 in
  List.iter
    (fun site ->
      List.iter
        (fun ordinal ->
          record
            (run_wal_tree ~dist:zipf ~seed:3042 ~site
               ~policy:(Failpoint.Crash_after ordinal)
               small))
        crash_ordinals)
    [ "wal.append"; "wal.commit" ];
  record
    (run_tree ~dist:zipf ~seed:3042 ~site:"paged_file.pwrite"
       ~policy:(Failpoint.Crash_after 3)
       small);
  record (run_torn_header small);
  record (run_torn_chain ());
  record (run_short_writes small);
  record (run_wal_torn_append ());
  record (run_wal_commit_crash ());
  record (run_wal_replay_crash ());
  (* WAL shipping: a synchronously-drained follower promoted over the
     primary's crash image, held to the recovered primary and to the
     commit-point oracle — across every log-path site — then the
     replay-to-LSN (PITR) check over the retained segments *)
  List.iter
    (fun config ->
      List.iter
        (fun site ->
          List.iter
            (fun ordinal ->
              record
                (run_replication ~site ~policy:(Failpoint.Crash_after ordinal)
                   config))
            crash_ordinals)
        [ "wal.append"; "wal.commit"; "paged_file.pwrite"; "paged_file.fsync" ])
    (if quick then [ small ] else [ small; { cache_pages = 32 } ]);
  (* durable MVCC over the WAL: version chains in the same log, pins
     held across group commits, vacuum churn mid-run; every log-path
     site, held to the newest-acked / deterministic-replay /
     no-resurrection oracles *)
  List.iter
    (fun config ->
      List.iter
        (fun site ->
          List.iter
            (fun ordinal ->
              record
                (run_mvcc_wal ~site ~policy:(Failpoint.Crash_after ordinal)
                   config))
            crash_ordinals)
        wal_sites)
    (if quick then [ small ] else [ small; { cache_pages = 32 } ]);
  record (run_wal_pitr ());
  run_error_paths ();
  run_wal_error_paths ();
  run_wal_commit_race ();
  Failpoint.reset ();
  List.rev !outcomes
