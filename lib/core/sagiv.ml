(** Sagiv's B*-tree with overtaking: searches, insertions, deletions.

    The paper's headline property holds by construction here: {b an
    insertion locks only one node at any time}. After rewriting a split
    node the lock is released {e before} the parent is even located —
    updaters moving up may overtake each other freely (§3.1: pair
    insertions at a level never modify existing pairs, and pairs stay
    sorted, so upward propagation order is irrelevant).

    Searches and deletions follow Fig 4 / §4; insertion follows Figs 5–6
    including the root-split and empty-stack details of §3.3. Compression
    lives in {!Compress} (background scans) and {!Compactor} (queue-driven,
    §5.4); deletions feed the queue here when enabled. *)

open Repro_storage

module Make_on_store (K : Key.S) (S : Page_store.S with type key = K.t) = struct
  module N = Node.Make (K)
  module A = Access.Make_on_store (K) (S)
  open Handle

  type t = (K.t, S.t) Handle.t
  type nonrec ctx = ctx

  let ctx = Handle.ctx

  (** [create ~order ()] builds an empty tree. [order] is the paper's k:
      every non-root node keeps between k and 2k pairs.
      [enqueue_on_delete] controls whether deletions push sparse leaves
      onto the compression queue (§5.4); leave it off to get exactly the
      Lehman–Yao deletion regime the paper starts from (§4).
      [store] supplies the page store (default: a fresh [S.create ()]);
      it must be empty. *)
  let create ?(order = 8) ?(enqueue_on_delete = false) ?store () : t =
    if order < 1 then invalid_arg "Sagiv.create: order must be >= 1";
    let store = match store with Some s -> s | None -> S.create () in
    if S.live_count store <> 0 then
      invalid_arg "Sagiv.create: store not empty (use open_existing)";
    let root = S.alloc store (N.empty_root ()) in
    {
      store;
      prime = Prime_block.create ~root_ptr:root;
      epoch = Epoch.create ();
      order;
      queue = Cqueue.create ();
      enqueue_on_delete;
    }

  let order (t : t) = t.order

  (* Split [total] items into even-ish chunks: target size [cap], never
     above [hard_cap] (node capacity), and at least [min_fill] whenever
     more than one chunk exists — dropping the chunk count when an even
     split would dip below the minimum (e.g. 2k+1 items at fill 0.9). *)
  let chunk_sizes ~min_fill ~cap ~hard_cap total =
    if total = 0 then []
    else begin
      let want = (total + cap - 1) / cap in
      let most = max 1 (total / min_fill) in
      let least = (total + hard_cap - 1) / hard_cap in
      let nchunks = max least (min want most) in
      let base = total / nchunks and extra = total mod nchunks in
      List.init nchunks (fun i -> base + if i < extra then 1 else 0)
      |> List.map (fun s ->
             assert (s <= hard_cap && (nchunks = 1 || s >= min_fill));
             s)
    end

  let check_sorted pairs =
    let rec go = function
      | (a, _) :: ((b, _) :: _ as rest) ->
          if K.compare a b >= 0 then
            invalid_arg "Sagiv.of_sorted: keys must be strictly ascending";
          go rest
      | [ _ ] | [] -> ()
    in
    go pairs

  (* Shared bulk-construction core of {!of_sorted} and {!bulk_add}: pack
     the strictly ascending [pairs] bottom-up into [store] at [fill] of
     capacity and return the leftmost pointer of each level (leaf first,
     root last). Quiescent; the caller publishes the result. *)
  let build_levels ~order ~fill ~store (pairs : (K.t * Node.ptr) list) :
      Node.ptr array =
    (* target chunk size: fill fraction of capacity, at least 2 so every
       level strictly shrinks (a cap of 1 would never converge) *)
    let cap = max 2 (max order (int_of_float (fill *. float_of_int (2 * order)))) in
    let hard_cap = 2 * order in
    let total = List.length pairs in
    let split_chunks items =
      let sizes = chunk_sizes ~min_fill:order ~cap ~hard_cap (List.length items) in
      let rec go sizes items acc =
        match sizes with
        | [] ->
            assert (items = []);
            List.rev acc
        | s :: rest ->
            let chunk = ref [] and tail = ref items in
            for _ = 1 to s do
              match !tail with
              | x :: xs ->
                  chunk := x :: !chunk;
                  tail := xs
              | [] -> assert false
            done;
            go rest !tail (List.rev !chunk :: acc)
      in
      go sizes items []
    in
    (* Leaves. *)
    let leaf_level =
      if total = 0 then begin
        let p = S.alloc store (N.empty_root ()) in
        [ (p, Bound.Pos_inf) ]
      end
      else begin
        let chunks = split_chunks pairs in
        let ptrs = List.map (fun _ -> S.reserve store) chunks in
        let n = List.length chunks in
        let highs =
          List.mapi
            (fun i chunk ->
              if i = n - 1 then Bound.Pos_inf
              else Bound.Key (fst (List.nth chunk (List.length chunk - 1))))
            chunks
        in
        List.iteri
          (fun i chunk ->
            let low = if i = 0 then Bound.Neg_inf else List.nth highs (i - 1) in
            let node =
              {
                Node.level = 0;
                keys = Array.of_list (List.map fst chunk);
                ptrs = Array.of_list (List.map snd chunk);
                low;
                high = List.nth highs i;
                link = (if i = n - 1 then None else Some (List.nth ptrs (i + 1)));
                is_root = n = 1;
                state = Node.Live;
              }
            in
            S.put store (List.nth ptrs i) node)
          chunks;
        List.combine ptrs highs
      end
    in
    (* Internal levels: children are (ptr, high); a parent over a chunk of
       children has keys = highs of all children but the last. *)
    let rec build_up level children leftmosts =
      match children with
      | [ (root_ptr, _) ] -> (root_ptr, List.rev leftmosts)
      | _ ->
          let chunks = split_chunks children in
          let ptrs = List.map (fun _ -> S.reserve store) chunks in
          let n = List.length chunks in
          let highs =
            List.map (fun chunk -> snd (List.nth chunk (List.length chunk - 1))) chunks
          in
          List.iteri
            (fun i chunk ->
              let low = if i = 0 then Bound.Neg_inf else List.nth highs (i - 1) in
              let seps =
                List.filteri (fun j _ -> j < List.length chunk - 1) chunk
                |> List.map (fun (_, h) -> Bound.get_key h)
              in
              let node =
                {
                  Node.level;
                  keys = Array.of_list seps;
                  ptrs = Array.of_list (List.map fst chunk);
                  low;
                  high = List.nth highs i;
                  link = (if i = n - 1 then None else Some (List.nth ptrs (i + 1)));
                  is_root = n = 1;
                  state = Node.Live;
                }
              in
              S.put store (List.nth ptrs i) node)
            chunks;
          build_up (level + 1) (List.combine ptrs highs) (List.hd ptrs :: leftmosts)
    in
    let leftmost_leaf = fst (List.hd leaf_level) in
    let _root_ptr, upper_leftmosts = build_up 1 leaf_level [] in
    (* [upper_leftmosts] is bottom-up: levels 1..top; the root is last. *)
    Array.of_list (leftmost_leaf :: upper_leftmosts)

  (** Bulk-load a tree from strictly ascending (key, payload) pairs — a
      quiescent constructor that packs nodes to [fill] (default 0.9 of
      capacity) and never takes a lock. Orders of magnitude faster than
      repeated {!insert} and yields denser nodes.
      @raise Invalid_argument if the keys are not strictly ascending. *)
  let of_sorted ?(order = 8) ?(fill = 0.9) ?store (pairs : (K.t * Node.ptr) list) : t =
    if order < 1 then invalid_arg "Sagiv.of_sorted: order must be >= 1";
    if fill <= 0.0 || fill > 1.0 then invalid_arg "Sagiv.of_sorted: fill in (0, 1]";
    check_sorted pairs;
    let store = match store with Some s -> s | None -> S.create () in
    if S.live_count store <> 0 then
      invalid_arg "Sagiv.of_sorted: store not empty (use open_existing)";
    let leftmost = build_levels ~order ~fill ~store pairs in
    {
      store;
      prime = Prime_block.restore ~levels:(Array.length leftmost) ~leftmost;
      epoch = Epoch.create ();
      order;
      queue = Cqueue.create ();
      enqueue_on_delete = false;
    }

  (** [bulk_add t pairs] packs strictly ascending [pairs] into an
      {e empty} tree in place — {!of_sorted}'s fast path for callers
      handed an already-created handle (preload). When the tree is not
      empty it returns [false] without touching anything and the caller
      falls back to {!insert}; on [true] the packed structure replaced
      the empty root. Quiescent only: no concurrent operation may be in
      flight, exactly as {!of_sorted}.
      @raise Invalid_argument if the keys are not strictly ascending. *)
  let bulk_add ?(fill = 0.9) (t : t) (pairs : (K.t * Node.ptr) list) : bool =
    if fill <= 0.0 || fill > 1.0 then invalid_arg "Sagiv.bulk_add: fill in (0, 1]";
    check_sorted pairs;
    let snap = Prime_block.read t.prime in
    let root_ptr = Prime_block.root snap in
    if
      snap.Prime_block.levels <> 1
      || Array.length (S.get t.store root_ptr).Node.keys > 0
    then false
    else if pairs = [] then true
    else begin
      let leftmost = build_levels ~order:t.order ~fill ~store:t.store pairs in
      Prime_block.install t.prime ~levels:(Array.length leftmost) ~leftmost;
      S.release t.store root_ptr;
      true
    end

  (** [search t ctx k] returns the record pointer stored with [k], without
      taking any lock (§2.2: locks never block readers; readers never
      lock). *)
  let search (t : t) (ctx : ctx) k =
    ctx.stats.Stats.ops <- ctx.stats.Stats.ops + 1;
    Epoch.with_pin t.epoch ~slot:ctx.slot (fun () ->
        let _ptr, leaf, _stack =
          A.locate t ctx (Bound.Key k) ~to_level:0 ~on_missing:A.Wait
        in
        N.leaf_find leaf k)

  (** Insertion result: [`Ok] or [`Duplicate] when [k] was already present
      (the tree is a dense index: one pair per key value). *)
  let insert (t : t) (ctx : ctx) k payload : [ `Ok | `Duplicate ] =
    ctx.stats.Stats.ops <- ctx.stats.Stats.ops + 1;
    Epoch.with_pin t.epoch ~slot:ctx.slot (fun () ->
        (* Insert the pair (ikey, iptr) at [level], then propagate splits
           upwards. Exactly one page latch is held at any point in this
           loop — the paper's central claim. *)
        let rec insert_level ~level ~ikey ~iptr ?start ~stack () =
          let target = Bound.Key ikey in
          let aptr, a, stack =
            A.acquire t ctx target ~level ~on_missing:A.Wait ?start ~stack ()
          in
          if level = 0 && N.mem a ikey then begin
            A.unlock t ctx aptr;
            `Duplicate
          end
          else if Node.is_safe ~order:t.order a then begin
            (* insert-into-safe *)
            let a' =
              if level = 0 then N.leaf_insert a ikey iptr else N.internal_insert a ikey iptr
            in
            A.put t ctx aptr a';
            A.unlock t ctx aptr;
            `Ok
          end
          else if not a.Node.is_root then begin
            (* insert-into-unsafe: write the new right sibling first, then
               rewrite A in one indivisible step (Fig 3), release A's lock,
               and only then go after the parent. *)
            let bptr = S.reserve t.store in
            let a', b =
              if level = 0 then N.leaf_split a ikey iptr ~right_ptr:bptr
              else N.internal_split a ikey iptr ~right_ptr:bptr
            in
            A.put t ctx bptr b;
            A.put t ctx aptr a';
            ctx.stats.Stats.splits <- ctx.stats.Stats.splits + 1;
            A.unlock t ctx aptr;
            let sep = Bound.get_key a'.Node.high in
            let start, stack =
              match stack with p :: rest -> (Some p, rest) | [] -> (None, [])
            in
            insert_level ~level:(level + 1) ~ikey:sep ~iptr:bptr ?start ~stack ()
          end
          else begin
            (* insert-into-unsafe-root: split, then create the new root and
               rewrite the prime block while still holding A's lock, so two
               roots can never be created simultaneously (§3.3). *)
            let bptr = S.reserve t.store in
            let a', b =
              if level = 0 then N.leaf_split a ikey iptr ~right_ptr:bptr
              else N.internal_split a ikey iptr ~right_ptr:bptr
            in
            A.put t ctx bptr b;
            A.put t ctx aptr a';
            ctx.stats.Stats.splits <- ctx.stats.Stats.splits + 1;
            let sep = Bound.get_key a'.Node.high in
            let rptr =
              S.alloc t.store
                (N.new_root ~level:(level + 1) ~left_ptr:aptr ~right_ptr:bptr ~sep)
            in
            Prime_block.push_root t.prime ~root_ptr:rptr;
            A.unlock t ctx aptr;
            `Ok
          end
        in
        let lptr, _leaf, stack =
          A.locate t ctx (Bound.Key k) ~to_level:0 ~on_missing:A.Wait
        in
        insert_level ~level:0 ~ikey:k ~iptr:payload ~start:lptr ~stack ())

  (** [take t ctx k] removes [k]'s pair from its leaf by rewriting the
      leaf (§4) and returns the removed record pointer — for callers that
      own the records (e.g. {!Kv}). No restructuring happens here; when
      [enqueue_on_delete] is set and the leaf drops below k pairs, it is
      pushed onto the compression queue while its lock is still held
      (§5.4). *)
  let take (t : t) (ctx : ctx) k : Node.ptr option =
    ctx.stats.Stats.ops <- ctx.stats.Stats.ops + 1;
    Epoch.with_pin t.epoch ~slot:ctx.slot (fun () ->
        let lptr, _leaf, stack =
          A.locate t ctx (Bound.Key k) ~to_level:0 ~on_missing:A.Wait
        in
        let aptr, a, stack =
          A.acquire t ctx (Bound.Key k) ~level:0 ~on_missing:A.Wait ~start:lptr ~stack ()
        in
        let removed =
          match N.leaf_find a k with
          | None -> None
          | Some old -> (
              match N.leaf_delete a k with
              | None -> None
              | Some a' ->
                  A.put t ctx aptr a';
                  if
                    t.enqueue_on_delete
                    && Node.is_sparse ~order:t.order a'
                    && not a'.Node.is_root
                  then begin
                    Cqueue.push t.queue ~update:true ~ptr:aptr ~level:0
                      ~high:a'.Node.high ~stack ~stamp:0;
                    ctx.stats.Stats.enqueued <- ctx.stats.Stats.enqueued + 1
                  end;
                  Some old)
        in
        A.unlock t ctx aptr;
        removed)

  (** [delete t ctx k] is {!take} without the pointer: [true] when the key
      was present. *)
  let delete (t : t) (ctx : ctx) k : bool = take t ctx k <> None

  (** [update t ctx k payload] atomically repoints [k]'s pair at a new
      record (one leaf rewrite under one lock — the search structure is
      untouched). Returns the {e old} record pointer, or [None] when [k]
      is absent. *)
  let update (t : t) (ctx : ctx) k payload : Node.ptr option =
    ctx.stats.Stats.ops <- ctx.stats.Stats.ops + 1;
    Epoch.with_pin t.epoch ~slot:ctx.slot (fun () ->
        let lptr, _leaf, stack =
          A.locate t ctx (Bound.Key k) ~to_level:0 ~on_missing:A.Wait
        in
        let aptr, a, _stack =
          A.acquire t ctx (Bound.Key k) ~level:0 ~on_missing:A.Wait ~start:lptr ~stack ()
        in
        match N.leaf_set_payload a k payload with
        | None ->
            A.unlock t ctx aptr;
            None
        | Some (a', old) ->
            A.put t ctx aptr a';
            A.unlock t ctx aptr;
            Some old)

  (** [fold_range t ctx ~lo ~hi ~init f] folds [f] over the pairs with
      [lo <= key <= hi] in ascending order, lock-free, by walking the leaf
      chain — the access pattern the B-link structure exists to serve
      (§2.1 footnote 3: the links "facilitate easy sequential traversal of
      the leaves").

      Concurrency contract: each leaf is read as one atomic snapshot, keys
      are emitted in strictly ascending order exactly once, and every pair
      that is present for the whole duration of the scan is emitted.
      Pairs inserted, deleted or moved leftwards by a concurrent
      compression {e during} the scan may or may not be observed (scans
      are not serialisable — the paper only serialises point operations).
      On a quiescent tree the scan is exact. *)
  let fold_range (t : t) (ctx : ctx) ~lo ~hi ~init f =
    if K.compare lo hi > 0 then init
    else begin
      ctx.stats.Stats.ops <- ctx.stats.Stats.ops + 1;
      Epoch.with_pin t.epoch ~slot:ctx.slot (fun () ->
          let ptr, _leaf, _stack =
            A.locate t ctx (Bound.Key lo) ~to_level:0 ~on_missing:A.Wait
          in
          (* last = greatest key emitted; guards against duplicates when a
             concurrent redistribution shifts pairs between snapshots. *)
          let rec walk ptr last acc =
            match
              (try `Node (S.get t.store ptr) with Page_store.Freed_page _ -> `Gone)
            with
            | `Gone -> acc
            | `Node n -> (
                match n.Node.state with
                | Node.Deleted fwd ->
                    ctx.stats.Stats.fwd_follows <- ctx.stats.Stats.fwd_follows + 1;
                    if fwd = Node.nil then acc else walk fwd last acc
                | Node.Live ->
                    let last = ref last and acc = ref acc in
                    for i = 0 to Node.nkeys n - 1 do
                      let k = n.Node.keys.(i) in
                      if
                        K.compare k lo >= 0
                        && K.compare k hi <= 0
                        && (match !last with None -> true | Some l -> K.compare k l > 0)
                      then begin
                        acc := f !acc k n.Node.ptrs.(i);
                        last := Some k
                      end
                    done;
                    (* done once this node's range reaches hi *)
                    if Bound.compare_key K.compare hi n.Node.high <= 0 then !acc
                    else begin
                      match n.Node.link with
                      | Some p ->
                          ctx.stats.Stats.link_follows <- ctx.stats.Stats.link_follows + 1;
                          walk p !last !acc
                      | None -> !acc
                    end)
          in
          walk ptr None init)
    end

  (** [range t ctx ~lo ~hi] is the pairs with [lo <= key <= hi], ascending. *)
  let range (t : t) (ctx : ctx) ~lo ~hi =
    List.rev (fold_range t ctx ~lo ~hi ~init:[] (fun acc k p -> (k, p) :: acc))

  (** [fold_all t ctx ~init f] folds over {e every} pair in ascending key
      order — {!fold_range} without bounds, starting at the leftmost leaf
      instead of a locate. Same lock-free concurrency contract: each leaf
      read as one snapshot, strictly ascending emission, pairs present
      for the whole scan all emitted; concurrent movers may or may not
      be seen. The online save/validate paths scan with this. *)
  let fold_all (t : t) (ctx : ctx) ~init f =
    ctx.stats.Stats.ops <- ctx.stats.Stats.ops + 1;
    Epoch.with_pin t.epoch ~slot:ctx.slot (fun () ->
        let rec walk ptr last acc =
          match
            (try `Node (S.get t.store ptr) with Page_store.Freed_page _ -> `Gone)
          with
          | `Gone -> acc
          | `Node n -> (
              match n.Node.state with
              | Node.Deleted fwd ->
                  ctx.stats.Stats.fwd_follows <- ctx.stats.Stats.fwd_follows + 1;
                  if fwd = Node.nil then acc else walk fwd last acc
              | Node.Live -> (
                  let last = ref last and acc = ref acc in
                  for i = 0 to Node.nkeys n - 1 do
                    let k = n.Node.keys.(i) in
                    if match !last with None -> true | Some l -> K.compare k l > 0
                    then begin
                      acc := f !acc k n.Node.ptrs.(i);
                      last := Some k
                    end
                  done;
                  match n.Node.link with
                  | Some p ->
                      ctx.stats.Stats.link_follows <- ctx.stats.Stats.link_follows + 1;
                      walk p !last !acc
                  | None -> !acc))
        in
        match Prime_block.leftmost_at (Prime_block.read t.prime) ~level:0 with
        | Some p -> walk p None init
        | None -> init)

  (** Convenience: number of keys currently stored (walks the leaf chain;
      only meaningful when quiescent). *)
  let cardinal (t : t) =
    let prime = Prime_block.read t.prime in
    let rec walk ptr acc =
      let n = S.get t.store ptr in
      let acc = acc + Node.nkeys n in
      match n.Node.link with Some p -> walk p acc | None -> acc
    in
    match Prime_block.leftmost_at prime ~level:0 with
    | Some p -> walk p 0
    | None -> 0

  (** All (key, payload) pairs in order (quiescent only). *)
  let to_list (t : t) =
    let prime = Prime_block.read t.prime in
    let rec walk ptr acc =
      let n = S.get t.store ptr in
      let acc =
        if Node.is_deleted n then acc
        else
          let here = ref [] in
          for i = Node.nkeys n - 1 downto 0 do
            here := (n.Node.keys.(i), n.Node.ptrs.(i)) :: !here
          done;
          acc @ !here
      in
      match n.Node.link with Some p -> walk p acc | None -> acc
    in
    match Prime_block.leftmost_at prime ~level:0 with
    | Some p -> walk p []
    | None -> []

  let height (t : t) = (Prime_block.read t.prime).Prime_block.levels

  (** Release pages whose grace period has passed (§5.3). *)
  let reclaim (t : t) = Epoch.reclaim t.epoch ~release:(S.release t.store)

  (* -- durability (quiescent): the tree's geometry and prime-block state
        live in the store's metadata blob, so a durable store can be
        closed and reopened without replay -- *)

  let meta_magic = 0x53_47_56_31 (* "SGV1" *)

  exception Corrupt of string

  let encode_meta (t : t) =
    let prime = Prime_block.read t.prime in
    let levels = prime.Prime_block.levels in
    let buf = Buffer.create (12 + (8 * levels)) in
    Buffer.add_int32_le buf (Int32.of_int meta_magic);
    Buffer.add_int32_le buf (Int32.of_int t.order);
    Buffer.add_int32_le buf (Int32.of_int levels);
    Array.iter
      (fun p -> Buffer.add_int64_le buf (Int64.of_int p))
      prime.Prime_block.leftmost;
    Buffer.to_bytes buf

  (** Persist the tree's geometry (order, levels, leftmost pointers) into
      the store's metadata and {!Page_store.S.sync} it. Quiescent only:
      no operation may be in flight and the queue should be drained. *)
  let flush (t : t) =
    S.set_meta t.store (encode_meta t);
    S.sync t.store

  (** Durably commit every completed operation: refresh the metadata blob
      (so the committed batch carries the geometry it needs — on a
      durable store the blob travels in the same log batch as the page
      images)
      and {!Page_store.S.commit} the store. Unlike {!flush}, safe to call
      while operations run in other domains. *)
  let commit (t : t) =
    S.set_meta t.store (encode_meta t);
    S.commit t.store

  (** Rebuild a handle over a store that was {!flush}ed and reopened (or
      is still live from another handle — but never use two handles
      concurrently: they would have separate epochs and queues). *)
  let open_existing ?(enqueue_on_delete = false) (store : S.t) : t =
    match S.get_meta store with
    | None -> raise (Corrupt "Sagiv.open_existing: store has no tree metadata")
    | Some bytes ->
        if
          Bytes.length bytes < 12
          || Int32.to_int (Bytes.get_int32_le bytes 0) <> meta_magic
        then raise (Corrupt "Sagiv.open_existing: bad metadata magic");
        let order = Int32.to_int (Bytes.get_int32_le bytes 4) in
        let levels = Int32.to_int (Bytes.get_int32_le bytes 8) in
        if order < 1 || levels < 1 || Bytes.length bytes < 12 + (8 * levels) then
          raise (Corrupt "Sagiv.open_existing: implausible metadata");
        let leftmost =
          Array.init levels (fun i -> Int64.to_int (Bytes.get_int64_le bytes (12 + (8 * i))))
        in
        {
          store;
          prime = Prime_block.restore ~levels ~leftmost;
          epoch = Epoch.create ();
          order;
          queue = Cqueue.create ();
          enqueue_on_delete;
        }
end

(** The tree over the in-memory {!Store} — the historical interface; all
    pre-existing call sites ([Sagiv.Make (Key.Int)]) keep working. *)
module Make (K : Key.S) = Make_on_store (K) (Store.For_key (K))
