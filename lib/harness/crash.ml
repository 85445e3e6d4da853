(** Simulated-crash harness for the durable store.

    One runner, {!run}, drives a deterministic workload over the full
    {!Repro_storage.Paged_store} stack on {e crash-shadow}
    {!Repro_storage.Paged_file} devices (writes not covered by an fsync
    are lost at the crash), with one {!Repro_storage.Failpoint} site
    armed to kill the simulated process at an exact IO boundary. Every
    store logs (WAL group commit, with periodic checkpoints); its
    {!scenario} names the rest of the durable configuration — the shard
    count, the plain tree or durable MVCC, and an optional WAL-shipping
    follower of shard 0. After the crash it harvests the
    durable images, reopens them cold, and checks:

    - the store opens (falling back across header slots, degrading a
      damaged free chain to a leak — never refusing an intact tree);
    - {!Repro_core.Validate} finds a structurally sound tree;
    - every shard's recovered contents are {e exactly} one of the two
      states its commit point permits: the last acknowledged commit, or
      — only when the crash hit inside a commit after its fsync — the
      in-flight one. Acknowledged data is never
      lost, and no value is ever torn or half-applied.

    The oracle is a sequential model: the workload runs single-domain,
    so the key set at each commit is known exactly. The targeted runs
    below {!run} stage one fault each by hand (torn writes, short
    writes, crashes in commit and replay, injected errors, a commit
    race, point-in-time recovery). See doc/RECOVERY.md for the crash
    model and its assumptions. *)

open Repro_storage

module PS = Paged_store.Make (Key.Int)
module Sg = Repro_core.Sagiv.Make_on_store (Key.Int) (PS)
module V = Repro_core.Validate.Make_on_store (Key.Int) (PS)
module MV = Repro_core.Mvcc.Make_on_store (Key.Int) (PS)

type scenario = {
  cache_pages : int;  (** decoded-node cache size (small → eviction traffic) *)
  shards : int;  (** independent store pairs, keys routed by {!Shard_router} *)
  mvcc : bool;  (** durable MVCC version chains over the tree *)
  follower : bool;
      (** a WAL-shipping follower of shard 0, promoted after the crash *)
  page_size : int;  (** data page bytes (the log page follows from it) *)
}

type outcome = {
  site : string;  (** armed failpoint site *)
  policy : string;
  scenario : scenario;
  crashed : bool;  (** false when the armed policy never fired *)
  ops : int;  (** workload ops issued before the crash (or all of them) *)
  acked_syncs : int;  (** commits that returned before the crash *)
  recovered_keys : int;
  recovered_gen : int;  (** header generation the reopen landed on *)
}

let pp_outcome o =
  Printf.sprintf "%-28s %-14s cache=%-3d %s ops=%-4d syncs=%-2d -> %d keys @gen %d"
    o.site o.policy o.scenario.cache_pages
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
  | Failpoint.Torn_at n -> Printf.sprintf "torn@%d" n
  | Failpoint.Crash_after n -> Printf.sprintf "crash@%d" n

(* The battery's page: order 4's, {!Page_codec.page_size_for}. Rows at
   4096 B, the page of every store written before pages were sized to
   the node, run the same checks at the other end of the range. *)
let data_page_size = 512
let large_page_size = 4096

let data_device ?(page_size = data_page_size) () =
  Paged_file.create_shadow ~page_size ()

let log_device ?(page_size = data_page_size) () =
  Paged_file.create_shadow
    ~page_size:(Wal.log_page_size ~data_page_size:page_size)
    ()

let mk_scenario ?(shards = 1) ?(mvcc = false) ?(follower = false)
    ?(page_size = data_page_size) cache_pages =
  { cache_pages; shards; mvcc; follower; page_size }

(* The suffix that names a non-default page size in the battery log. *)
let page_label page_size =
  if page_size = data_page_size then ""
  else Printf.sprintf ".%dk" (page_size / 1024)

(* Reopen the durable image a crash at this instant would leave behind:
   the data device's crash image, replaying the log device's. All
   failpoints are disarmed first: the dead process's policies must not
   outlive it into recovery. *)
let recover ?shard ~wal ~cache_pages pfile =
  let image = Paged_file.crash_image pfile in
  let wal = Paged_file.crash_image wal in
  Failpoint.reset ();
  PS.open_from ?expect_shard:shard ~cache_pages ~wal image

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

(* A key and its version chain: [(epoch, value-or-tombstone)] newest
   first. *)
type chain = int * (int * int option) list

(* Full version-chain dump of a durable-MVCC store, sorted. Two
   recoveries of the same crash images must produce {e equal} dumps —
   chain replay is deterministic down to the version level, not just
   the newest. *)
let chain_dump mv : chain list =
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

(* ---------- the commit-point oracle ---------- *)

(* One instance per shard. [model] is the live key set, [committed] the
   model at the last acknowledged commit, [inflight] the model at a
   commit still in progress: a crash inside it may land either side of
   its fsync, so recovery may land on either state, and on no other.
   [touched] notes a change since the last commit began, so a
   multi-shard batch commits only the shards it wrote. *)
module Commit_point = struct
  type t = {
    model : (int, int) Hashtbl.t;
    mutable committed : (int, int) Hashtbl.t;
    mutable inflight : (int, int) Hashtbl.t option;
    mutable touched : bool;
  }

  let create () =
    {
      model = Hashtbl.create 256;
      committed = Hashtbl.create 1;
      inflight = None;
      touched = false;
    }

  let put t k v =
    Hashtbl.replace t.model k v;
    t.touched <- true

  let remove t k =
    Hashtbl.remove t.model k;
    t.touched <- true

  let begin_commit t =
    t.inflight <- Some (Hashtbl.copy t.model);
    t.touched <- false

  let ack t =
    t.committed <- Option.get t.inflight;
    t.inflight <- None

  let check t ~what recovered =
    let ok =
      matches_model recovered t.committed
      || match t.inflight with Some m -> matches_model recovered m | None -> false
    in
    if not ok then
      fail "%s: recovered %d keys matching neither the %d committed nor the in-flight commit"
        what (List.length recovered) (Hashtbl.length t.committed)
end

(* ---------- WAL shipping: a harness-local follower ---------- *)

(* The same {!Wal.Apply} scan-one-record step the wire replica runs,
   over a private in-memory store. Promoted batches are only {e queued}
   while the primary is alive — they install at promotion time, after
   [Failpoint.reset] — because the harness's one global failpoint
   registry simulates one process: the follower is a different process,
   and its page installs must not trip the faults armed at the
   primary. *)
type follower = {
  f_store : PS.t;
  f_apply : Wal.Apply.t;
  mutable f_next : int;  (** next LSN to pull *)
  mutable f_pending : Wal.Apply.batch list;  (** promoted, newest first *)
  f_chains : int MV.view;  (** an MVCC primary's chains, as installed *)
}

let follower_create ?(page_size = data_page_size) () =
  {
    f_store = PS.create_memory ~page_size ();
    f_apply = Wal.Apply.create ~data_page_size:page_size ();
    f_next = 0;
    f_pending = [];
    f_chains = MV.view ~dec:Fun.id;
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
      PS.apply_replicated f.f_store ~gen:b.Wal.Apply.b_gen
        ~logical:b.Wal.Apply.b_logical ~images:b.Wal.Apply.b_images
        ~meta:b.Wal.Apply.b_meta;
      MV.view_batch f.f_chains ~gen:b.Wal.Apply.b_gen ~logical:b.Wal.Apply.b_logical)
    (List.rev f.f_pending);
  f.f_pending <- [];
  Sg.open_existing f.f_store

(* What a promoted follower holds: its pairs, and for an MVCC primary
   the version chains [Mvcc.open_durable] recovers over its store. *)
type promoted = { p_pairs : (int * int) list; p_chains : chain list option }

(* The follower hooks of {!run}, attached after the preload checkpoint:
   [drain] after every ack (synchronous shipping; the follower only
   queues, so the armed faults cannot fire in it), and [promote] once
   the primary is dead — catch up from the log device's crash image,
   exactly what a replica that kept pulling until the primary died would
   have received, and return what the promoted follower holds. Following
   an MVCC primary ([mvcc]) its pairs are its reads at the replicated
   clock (a leaf payload is a record slot, resolved through the vrec
   pages and the logical records shipped since), and its chains are
   what [Mvcc.open_durable] recovers over its store. The run never
   checkpoints after this point, so the live log pass spans it whole and
   the catch-up can count records from the start of the crash image. *)
let attach_follower ~what ~mvcc store lfile =
  let live_base = PS.wal_durable_lsn store + 1 in
  let data_page_size = PS.page_size store in
  let f = follower_create ~page_size:data_page_size () in
  follower_drain ~what store f;
  if f.f_next <> live_base then
    fail "%s: follower drained to LSN %d, live pass starts at %d" what f.f_next
      live_base;
  let promote () =
    let limage = Paged_file.crash_image lfile in
    Failpoint.reset ();
    (* Records past the last fsync were lost with the crash, so the scan
       ends at the first invalid continuation — stale pass-0 bytes (LSN
       regression) or a torn record — exactly like local replay. *)
    (let consumed = ref (f.f_next - live_base) in
     Wal.scan ~data_page_size limage (fun page ->
         if !consumed > 0 then begin
           decr consumed;
           true
         end
         else follower_feed f page));
    let ftree = follower_promote f in
    check_valid ftree ~what:(what ^ " (promoted follower)");
    if not mvcc then { p_pairs = Sg.to_list ftree; p_chains = None }
    else begin
      let ext =
        match Option.bind (PS.get_meta f.f_store) Repro_core.Mvcc.decode_meta_ext with
        | Some ext -> ext
        | None -> fail "%s: follower holds no MVCC metadata" what
      in
      let read = MV.view_reader f.f_chains f.f_store ext in
      let pairs =
        List.filter_map
          (fun (k, rptr) -> Option.map (fun v -> (k, v)) (read rptr))
          (Sg.to_list ftree)
      in
      let mv = MV.open_durable ~enc:Fun.id ~dec:Fun.id f.f_store in
      let c = MV.ctx ~slot:0 in
      if MV.range mv c ~lo:min_int ~hi:max_int <> pairs then
        fail "%s: follower promoted through Mvcc.open_durable disagrees with its reads at the replicated clock"
          what;
      { p_pairs = pairs; p_chains = Some (chain_dump mv) }
    end
  in
  ((fun () -> follower_drain ~what store f), promote)

(* ---------- engines ---------- *)

(* What {!run} drives over the shards' stores. [load k] preloads key
   [k]; [step i k r] applies op [i] on key [k] with mix draw [r], before
   op [i]'s commit point; [persist s ~checkpoint] commits (or
   checkpoints) shard [s]; [acked] runs after each acknowledged commit;
   [quiesce] before a clean run's closing commit; [reopen what open_]
   opens a recovered store (calling [open_] as often as it needs),
   checks the engine's own invariants and returns the live pairs;
   [chains] gives the version chains the last [reopen] recovered (MVCC
   only). *)
type engine = {
  load : int -> unit;
  step : int -> int -> int -> unit;
  persist : int -> checkpoint:bool -> unit;
  acked : unit -> unit;
  quiesce : unit -> unit;
  reopen : string -> (unit -> PS.t) -> PS.t * (int * int) list;
  chains : unit -> chain list option;
}

(* The Sagiv engine: one tree per shard, the insert/delete/search mix. *)
let tree_engine ~route stores (oracles : Commit_point.t array) =
  let trees = Array.map (fun store -> Sg.create ~order:4 ~store ()) stores in
  let c = Sg.ctx ~slot:0 in
  let insert k =
    let s = route k in
    match Sg.insert trees.(s) c k (payload k) with
    | `Ok -> Commit_point.put oracles.(s) k (payload k)
    | `Duplicate -> ()
  in
  {
    load = insert;
    step =
      (fun _ k r ->
        let s = route k in
        match r with
        | 0 | 1 -> if Sg.delete trees.(s) c k then Commit_point.remove oracles.(s) k
        | 2 -> ignore (Sg.search trees.(s) c k)
        | _ -> insert k);
    persist =
      (fun s ~checkpoint ->
        if checkpoint then Sg.flush trees.(s) else Sg.commit trees.(s));
    acked = ignore;
    quiesce = ignore;
    reopen =
      (fun what open_ ->
        let store = open_ () in
        let tree = Sg.open_existing store in
        check_valid tree ~what;
        (store, Sg.to_list tree));
    chains = (fun () -> None);
  }

(* The durable-MVCC engine (one shard): upsert/delete/get, with values
   salted by the op index so every version of a key is distinguishable.
   Its hooks hold a snapshot pinned across several commits (checked
   against its cut before release) and run vacuum, keeping a ledger of
   the version identities each prune removed. Recovery adds three
   checks to the commit point: chain replay is deterministic (two
   recoveries of the same images yield identical chains), no version
   pruned before an acked commit resurrects — even when WAL replay
   re-installs a pre-prune page image past the checkpoint — and a fresh
   pin reads the recovered state. *)
let mvcc_engine ~what store (o : Commit_point.t) =
  let mv = MV.create_durable ~order:4 ~enc:Fun.id ~dec:Fun.id store in
  let c = MV.ctx ~slot:0 in
  let upsert k v =
    MV.upsert mv c k v;
    Commit_point.put o k v
  in
  let snap = ref None in
  (* the pruned-version ledger: identities vacuum dropped, pending until
     the drop rides an acked commit *)
  let pending_pruned = ref [] in
  let committed_pruned : (int * int * int option, unit) Hashtbl.t =
    Hashtbl.create 64
  in
  let hooks i =
    (* a pin opened at +20 each century, held across several group
       commits, checked against its cut and dropped at +60 *)
    if i mod 100 = 20 && Option.is_none !snap then
      snap := Some (MV.snapshot mv, Hashtbl.copy o.model);
    (if i mod 100 = 60 then
       match !snap with
       | Some (s, at_cut) ->
           for k = 0 to 199 do
             if Hashtbl.mem at_cut k || Hashtbl.mem o.model k then
               if MV.snap_get mv s c k <> Hashtbl.find_opt at_cut k then
                 fail "%s: pinned snapshot drifted at key %d" what k
           done;
           MV.release s;
           snap := None
       | None -> ());
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
    end
  in
  let recovered_chains = ref None in
  let reopen what open_ =
    let open_mv () =
      let store = open_ () in
      (store, MV.open_durable ~enc:Fun.id ~dec:Fun.id store)
    in
    let store2, mv2 = open_mv () in
    check_valid (MV.tree mv2) ~what;
    let recovered = MV.range mv2 c ~lo:min_int ~hi:max_int in
    let dump = chain_dump mv2 in
    recovered_chains := Some dump;
    if chain_dump (snd (open_mv ())) <> dump then
      fail "%s: two recoveries of one crash image disagree on chains" what;
    List.iter
      (fun (k, chain) ->
        List.iter
          (fun (e, v) ->
            if Hashtbl.mem committed_pruned (k, e, v) then
              fail
                "%s: version (key %d, epoch %d) pruned before an acked commit resurrected across recovery"
                what k e)
          chain)
      dump;
    let s = MV.snapshot mv2 in
    List.iter
      (fun (k, v) ->
        if MV.snap_get mv2 s c k <> Some v then
          fail "%s: post-recovery snapshot misreads key %d" what k)
      recovered;
    MV.release s;
    (store2, recovered)
  in
  {
    load = (fun k -> upsert k (payload k));
    step =
      (fun i k r ->
        (match r with
        | 0 -> if MV.delete mv c k then Commit_point.remove o k
        | 1 -> ignore (MV.get mv c k)
        | _ -> upsert k (payload k + (i * 1000)));
        hooks i);
    persist =
      (fun _ ~checkpoint -> if checkpoint then MV.flush mv else MV.commit mv);
    acked =
      (fun () ->
        List.iter (fun id -> Hashtbl.replace committed_pruned id ()) !pending_pruned;
        pending_pruned := []);
    quiesce = (fun () -> Option.iter (fun (s, _) -> MV.release s) !snap);
    reopen;
    chains = (fun () -> !recovered_chains);
  }

(* ---------- the runner ---------- *)

(* The policy-column suffix that names a scenario in the battery log. *)
let label sc =
  (if sc.follower then
     if sc.mvcc then "+wal.mvcc.follower"
     else if sc.shards > 1 then Printf.sprintf "+repl.x%d" sc.shards
     else "+repl"
   else if sc.mvcc then "+mvcc"
   else if sc.shards > 1 then Printf.sprintf "+wal.x%d" sc.shards
   else "+wal")
  ^ page_label sc.page_size

(** One crash run: preload + checkpoint on every shard, arm [site] with
    [policy], run the engine's seeded mix with a commit point every
    [period] ops, catch the simulated death, recover every shard from
    its own crash images and hold it to its commit-point oracle (and a
    follower, promoted, to shard 0's). A run where the policy never
    fires ends with a clean commit and an exact-contents check
    instead. *)
let run ?ops ?seed ?(dist = Repro_util.Distribution.Uniform) ~site ~policy sc =
  let n = sc.shards in
  if n < 1 || (sc.mvcc && n > 1) then
    invalid_arg "Crash.run: no engine for this scenario";
  let what = Printf.sprintf "%s (%s%s)" site (policy_name policy) (label sc) in
  let ops = Option.value ops ~default:(if sc.follower then 300 else 400) in
  let seed =
    Option.value seed
      ~default:(if sc.follower || n > 1 then 2042 else if sc.mvcc then 4042 else 1042)
  in
  Failpoint.reset ();
  let page_size = sc.page_size in
  let devices =
    Array.init n (fun _ -> (data_device ~page_size (), log_device ~page_size ()))
  in
  let stores =
    Array.mapi
      (fun s (pfile, wal) ->
        PS.create_on ~shard:(s, n) ~cache_pages:sc.cache_pages ~wal pfile)
      devices
  in
  let oracles = Array.init n (fun _ -> Commit_point.create ()) in
  let route k = Shard_router.shard_of ~shards:n k in
  let e =
    if sc.mvcc then mvcc_engine ~what stores.(0) oracles.(0)
    else tree_engine ~route stores oracles
  in
  let commit s ~checkpoint =
    Commit_point.begin_commit oracles.(s);
    e.persist s ~checkpoint;
    Commit_point.ack oracles.(s)
  in
  (* Preload and checkpoint before arming: every shard's durable image
     holds a committed generation when the faults switch on. *)
  for k = 0 to 49 do
    if k mod 2 = 0 then e.load k
  done;
  for s = 0 to n - 1 do
    commit s ~checkpoint:true
  done;
  let follower =
    if sc.follower then
      Some
        (attach_follower ~what ~mvcc:sc.mvcc stores.(0) (snd devices.(0)))
    else None
  in
  (* group-commit every 5 ops and checkpoint on every 100th, so each run
     crosses both mechanisms; a followed primary commits every 3 ops and
     never checkpoints *)
  let period = if sc.follower then 3 else 5 in
  let checkpoint i = i mod 100 = 0 && not sc.follower in
  let acked = ref 0 in
  let issued = ref 0 in
  let crashed = ref false in
  Failpoint.set site policy;
  (try
     let rng = Repro_util.Splitmix.create seed in
     let keys = key_sampler ~space:(if n > 1 then 400 else 200) dist in
     for i = 1 to ops do
       issued := i;
       let k = Repro_util.Distribution.sample keys rng in
       e.step i k (Repro_util.Splitmix.int rng 10);
       if i mod period = 0 then
         (* a multi-shard batch commits the shards it touched, in shard
            order, each acknowledged separately — a crash lands mid-batch *)
         for s = 0 to n - 1 do
           if n = 1 || oracles.(s).touched then begin
             commit s ~checkpoint:(checkpoint i);
             e.acked ();
             Option.iter (fun (drain, _) -> drain ()) follower;
             incr acked
           end
         done
     done
   with Failpoint.Crash _ -> crashed := true);
  let crashed = !crashed || Failpoint.is_crashed () in
  if not crashed then begin
    (* the policy never fired: finish cleanly so the run still checks the
       straight-line durability path *)
    Failpoint.reset ();
    e.quiesce ();
    for s = 0 to n - 1 do
      commit s ~checkpoint:false
    done;
    e.acked ();
    Option.iter (fun (drain, _) -> drain ()) follower
  end;
  let promoted = Option.map (fun (_, promote) -> promote ()) follower in
  let keys = ref 0 and gen = ref 0 in
  Array.iteri
    (fun s (pfile, wal) ->
      let what =
        if n > 1 then Printf.sprintf "%s shard %d/%d" what s n else what
      in
      let store, recovered =
        e.reopen what (fun () ->
            recover ~shard:(s, n) ~wal ~cache_pages:sc.cache_pages pfile)
      in
      Commit_point.check oracles.(s) ~what recovered;
      List.iter
        (fun (k, _) ->
          if route k <> s then
            fail "%s: key %d recovered here but routes to shard %d" what k
              (route k))
        recovered;
      Option.iter
        (fun { p_pairs; p_chains } ->
          (* the follower's reads at its horizon are a committed cut of
             the shard it follows *)
          Commit_point.check oracles.(s) ~what:(what ^ " (follower)") p_pairs;
          if p_pairs <> recovered then
            fail "%s: promoted follower (%d keys) diverged from the recovered primary (%d keys)"
              what (List.length p_pairs) (List.length recovered);
          if p_chains <> e.chains () then
            fail "%s: promoted follower recovered other version chains than the primary"
              what)
        (if s = 0 then promoted else None);
      keys := !keys + List.length recovered;
      gen := max !gen (PS.generation store))
    devices;
  {
    site;
    policy = policy_name policy ^ label sc;
    scenario = sc;
    crashed;
    ops = !issued;
    acked_syncs = !acked;
    recovered_keys = !keys;
    recovered_gen = !gen;
  }

(* ---------- targeted runs ---------- *)

(** Torn header-slot write: with nothing else dirty, the first write of a
    sync is the staged header (its CHECKPOINT marker waits in the log's
    memory for the next group) — tear it mid-page and die. The slot being
    torn is the {e alternate} one, so recovery never loses the committed
    generation: depending on where the seeded tear lands, the torn slot
    either fails its checksum (or reproduces stale-but-valid older-gen
    bytes, which the committed slot outranks) and recovery falls back, or
    the tear covered every byte that differs and the staged header
    physically landed in full, in which case the newer generation — with
    byte-identical contents — validates and wins. Runs a spread of RNG
    seeds and requires both branches to occur. At the default page the
    tear lands on slot 1; at any other size one more checkpoint puts it
    on slot 0, the slot that names the page size, so the reopen must
    find slot 1 by the size it derives. The few bytes that differ sit
    at the head of the page, so the seed count grows with the page to
    keep the fall-back branch in reach. *)
let run_torn_header ?(page_size = data_page_size) () =
  let seeds = 24 * (page_size / data_page_size) in
  let flushes = if page_size = data_page_size then 2 else 3 in
  let committed = ref 0 and fell_back = ref 0 and landed = ref 0 in
  for s = 1 to seeds do
    Failpoint.reset ();
    Failpoint.seed (0x7EAD + s);
    let pfile = data_device ~page_size () in
    let lfile = log_device ~page_size () in
    let store = PS.create_on ~cache_pages:8 ~wal:lfile pfile in
    let tree = Sg.create ~order:4 ~store () in
    let c = Sg.ctx ~slot:0 in
    let model = Hashtbl.create 64 in
    for k = 0 to 59 do
      ignore (Sg.insert tree c k (payload k));
      Hashtbl.replace model k (payload k)
    done;
    for _ = 1 to flushes do
      Sg.flush tree
    done;
    (* both slots now hold valid headers *)
    let committed_gen = PS.generation store in
    committed := committed_gen;
    Failpoint.set "paged_file.pwrite" Failpoint.Torn_write;
    (match Sg.flush tree with
    | () -> fail "torn header write: sync must crash"
    | exception Failpoint.Crash _ -> ());
    let store2 = recover ~cache_pages:8 ~wal:lfile pfile in
    let tree2 = Sg.open_existing store2 in
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
    policy = "torn(header)" ^ page_label page_size;
    scenario = mk_scenario ~page_size 8;
    crashed = true;
    ops = seeds;
    acked_syncs = flushes * seeds;
    recovered_keys = 60;
    recovered_gen = !committed;
  }

(** Torn free-chain write. Staged so the page being torn is {e free} in
    the committed generation (the chain is re-written over pages that
    were already free-chain entries): tearing it can damage only the
    chain, which recovery degrades to a leak — never the tree. *)
let run_torn_chain () =
  Failpoint.reset ();
  let pfile = data_device () in
  let lfile = log_device () in
  let store = PS.create_on ~cache_pages:8 ~wal:lfile pfile in
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
  let store2 = recover ~cache_pages:8 ~wal:lfile pfile in
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
    scenario = mk_scenario 8;
    crashed = true;
    ops = 0;
    acked_syncs = 2;
    recovered_keys = List.length live;
    recovered_gen = PS.generation store2;
  }

(** Short writes every other page write: the retry loops in
    {!Repro_storage.Paged_file} must make them invisible — the workload
    completes, and the recovered image is byte-exact. *)
let run_short_writes () =
  Failpoint.reset ();
  let pfile = data_device () in
  let lfile = log_device () in
  let store = PS.create_on ~cache_pages:8 ~wal:lfile pfile in
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
  let store2 = recover ~cache_pages:8 ~wal:lfile pfile in
  let tree2 = Sg.open_existing store2 in
  check_valid tree2 ~what:"short writes";
  if not (matches_model (Sg.to_list tree2) model) then
    fail "short writes: contents differ after reopen";
  {
    site = "paged_file.pwrite";
    policy = "short/2";
    scenario = mk_scenario 8;
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
  let pfile = data_device () in
  let lfile = log_device () in
  let store = PS.create_on ~cache_pages:4 ~wal:lfile pfile in
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
    let image = recover ~cache_pages:8 ~wal:lfile pfile in
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
  check_image ~what:"across the error storm" ~from:1

(** Torn log append: with the cache big enough to hold the whole tree,
    the only device writes a group commit issues are log records — so a
    torn write is guaranteed to land on a record, never on the tree.
    Replay must stop at the torn record and recovery must land exactly
    on the last acknowledged commit. *)
let run_wal_torn_append () =
  Failpoint.reset ();
  let pfile = data_device () in
  let lfile = log_device () in
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
  let store2 = recover ~cache_pages:32 ~wal:lfile pfile in
  let tree2 = Sg.open_existing store2 in
  check_valid tree2 ~what:"torn log append";
  if not (matches_model (Sg.to_list tree2) committed) then
    fail "torn log append: recovery must land on the pre-tear commit";
  {
    site = "paged_file.pwrite";
    policy = "torn(wal)";
    scenario = mk_scenario 256;
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
  let pfile = data_device () in
  let lfile = log_device () in
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
  let store2 = recover ~cache_pages:32 ~wal:lfile pfile in
  let tree2 = Sg.open_existing store2 in
  check_valid tree2 ~what:"commit-fsync crash";
  if not (matches_model (Sg.to_list tree2) committed) then
    fail "commit-fsync crash: recovery must land on the previous commit";
  {
    site = "wal.commit";
    policy = "crash@1(fsync)";
    scenario = mk_scenario 32;
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
  let pfile = data_device () in
  let lfile = log_device () in
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
    scenario = mk_scenario 16;
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
  let pfile = data_device () in
  let lfile = log_device () in
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
  let tree2 = Sg.open_existing (recover ~cache_pages:32 ~wal:lfile pfile) in
  check_valid tree2 ~what:"wal error paths";
  if not (matches_model (Sg.to_list tree2) model) then
    fail "wal error paths: retried commits lost data"

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
    let pfile = data_device () in
    let lfile = log_device () in
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
    let tree2 = Sg.open_existing (recover ~cache_pages:64 ~wal:lfile pfile) in
    check_valid tree2 ~what:"wal commit race";
    let recovered = Sg.to_list tree2 in
    let expect = 1 + (domains * batch) in
    if List.length recovered <> expect then
      fail "wal commit race (run %d): recovered %d keys, %d were acknowledged"
        run (List.length recovered) expect;
    if not (List.for_all (fun (k, v) -> v = payload k) recovered) then
      fail "wal commit race (run %d): recovered a torn payload" run
  done

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
  let pfile = data_device () in
  let lfile = log_device () in
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
    scenario = mk_scenario 32;
    crashed = false;
    ops;
    acked_syncs = Array.length snaps;
    recovered_keys = List.length recovered;
    recovered_gen = PS.generation f.f_store;
  }

(** The whole battery, one table walked by one loop: each sweep row is
    a scenario run at every (cache size, site, crash ordinal), in the
    order the rows are listed; the targeted runs sit between them. The
    injected-error runs and the multi-domain group-commit stress close
    it. Returns the outcomes; raises on any violated invariant. After a
    battery, {!Repro_storage.Failpoint.unexercised} must be empty — the
    CLI and CI enforce it. *)
let battery ?(quick = false) ?(shards = 4) ?(log = fun _ -> ()) () =
  let ordinals = if quick then [ 1 ] else [ 1; 3; 7 ] in
  let caches big = if quick then [ 8 ] else [ 8; big ] in
  (* the WAL's own sites plus the device and checkpoint sites the log
     path shares *)
  let log_sites =
    [
      "wal.append";
      "wal.commit";
      "paged_file.pwrite";
      "paged_file.fsync";
      "paged_store.sync.header";
    ]
  in
  (* ... and the pager's: faults, eviction write-back and the rest of
     the checkpoint *)
  let store_sites =
    log_sites
    @ [
        "paged_file.pread";
        "paged_store.fault";
        "paged_store.evict";
        "paged_store.sync.data";
        "paged_store.sync.commit";
      ]
  in
  let follower_sites =
    [ "wal.append"; "wal.commit"; "paged_file.pwrite"; "paged_file.fsync" ]
  in
  let sweep ?seed ?dist ?(ordinals = ordinals) caches sites mk =
    List.concat_map
      (fun cache ->
        List.concat_map
          (fun site ->
            List.map
              (fun n () ->
                run ?seed ?dist ~site ~policy:(Failpoint.Crash_after n) (mk cache))
              ordinals)
          sites)
      caches
  in
  (* Zipfian rows aim the commit-point oracle at hot-key traffic: a
     handful of leaves take repeated same-key updates, the regime batch
     dedup targets *)
  let zipf = Repro_util.Distribution.Zipfian 0.99 in
  let sharded rows = if shards > 1 then rows else [] in
  let table =
    [
      sweep (caches 64) store_sites mk_scenario;
      sharded (sweep (caches 64) store_sites (mk_scenario ~shards));
      sweep ~seed:3042 ~dist:zipf [ 8 ] [ "wal.append"; "wal.commit" ] mk_scenario;
      sweep ~seed:3042 ~dist:zipf ~ordinals:[ 3 ] [ 8 ] [ "paged_file.pwrite" ]
        mk_scenario;
      [
        run_torn_header;
        run_torn_header ~page_size:large_page_size;
        run_torn_chain;
        run_short_writes;
        run_wal_torn_append;
        run_wal_commit_crash;
        run_wal_replay_crash;
      ];
      sweep (caches 32) follower_sites (mk_scenario ~follower:true);
      sharded (sweep [ 8 ] follower_sites (mk_scenario ~shards ~follower:true));
      sweep (caches 32) store_sites (mk_scenario ~mvcc:true);
      sweep (caches 32) follower_sites (mk_scenario ~mvcc:true ~follower:true);
      (* the 4096-byte page of every store written before pages were
         sized to the node, at the first ordinal *)
      sweep ~ordinals:[ 1 ] [ 8 ] log_sites (mk_scenario ~page_size:large_page_size);
      sweep ~ordinals:[ 1 ] [ 8 ] log_sites
        (mk_scenario ~mvcc:true ~page_size:large_page_size);
      [ (fun () -> run_wal_pitr ()) ];
    ]
  in
  let outcomes = ref [] in
  List.iter
    (List.iter (fun r ->
         let o = r () in
         log (pp_outcome o);
         outcomes := o :: !outcomes))
    table;
  run_error_paths ();
  run_wal_error_paths ();
  run_wal_commit_race ();
  Failpoint.reset ();
  List.rev !outcomes
