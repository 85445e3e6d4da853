(** Structural invariant checker (quiescent trees).

    Verifies the "validity of the search structure" that Theorem 1's proof
    rests on: each non-leaf level is exactly the sequence of high values
    and links of the level below (Fig 2), every search reaches the right
    node using pointers alone, and the occupancy rules hold. Used heavily
    by tests after concurrent runs, and by the benches to report occupancy
    (experiment E3). *)

open Repro_storage

type level_stats = {
  level : int;
  nodes : int;
  keys : int;
  min_fill : float;
  avg_fill : float;  (** keys / capacity, averaged over nodes *)
}

type report = {
  height : int;
  total_keys : int;  (** keys stored in leaves *)
  total_nodes : int;  (** live nodes reachable from the root *)
  levels : level_stats list;
  encoded_bytes : int;  (** on-disk size of all reachable nodes *)
  errors : string list;
}

let ok report = report.errors = []

module Make_on_store (K : Key.S) (S : Page_store.S with type key = K.t) = struct
  module N = Node.Make (K)
  module C = Page_codec.Make (K)
  open Handle

  let bcompare = N.bcompare

  (* Walk one level's link chain, checking chain invariants and each
     node's local invariants. Returns the nodes as (ptr, node) list. *)
  let walk_level t ~order ~err ~level start =
    let rec go ptr prev_high acc =
      match (try `N (S.get t.store ptr) with Page_store.Freed_page _ -> `Freed) with
      | `Freed ->
          err (Printf.sprintf "level %d: chain reaches freed page %d" level ptr);
          List.rev acc
      | `N n ->
          if Node.is_deleted n then begin
            err (Printf.sprintf "level %d: chain reaches deleted page %d" level ptr);
            List.rev acc
          end
          else begin
            if n.Node.level <> level then
              err
                (Printf.sprintf "page %d: level field %d, expected %d" ptr n.Node.level
                   level);
            List.iter
              (fun e -> err (Printf.sprintf "page %d: %s" ptr e))
              (N.check ~order n);
            if bcompare n.Node.low prev_high <> 0 then
              err
                (Printf.sprintf "page %d: low %s <> left neighbour's high %s" ptr
                   (Bound.to_string K.to_string n.Node.low)
                   (Bound.to_string K.to_string prev_high));
            let acc = (ptr, n) :: acc in
            match n.Node.link with
            | Some p -> go p n.Node.high acc
            | None ->
                if bcompare n.Node.high Bound.Pos_inf <> 0 then
                  err (Printf.sprintf "page %d: rightmost node's high is not +inf" ptr);
                List.rev acc
          end
    in
    go start Bound.Neg_inf []

  (* The Fig 2 property: ignoring the leftmost pointer, the (key, ptr)
     pairs at level i+1 equal the (high, link) pairs at level i — i.e.
     each parent's child slots match the children's actual bounds. *)
  let check_parent_child t ~err parents children =
    let child_tbl = Hashtbl.create (List.length children) in
    List.iter (fun (p, n) -> Hashtbl.replace child_tbl p n) children;
    let covered = Hashtbl.create (List.length children) in
    List.iter
      (fun (fp, f) ->
        Array.iteri
          (fun j cp ->
            match Hashtbl.find_opt child_tbl cp with
            | None ->
                err
                  (Printf.sprintf "parent %d slot %d: child %d not on its level chain" fp
                     j cp)
            | Some c ->
                Hashtbl.replace covered cp ();
                if bcompare c.Node.low (N.slot_low f j) <> 0 then
                  err
                    (Printf.sprintf "parent %d slot %d: child %d low mismatch" fp j cp);
                if bcompare c.Node.high (N.slot_high f j) <> 0 then
                  err
                    (Printf.sprintf "parent %d slot %d: child %d high mismatch" fp j cp))
          f.Node.ptrs;
        ignore (S.get t.store fp))
      parents;
    List.iter
      (fun (cp, _) ->
        if not (Hashtbl.mem covered cp) then
          err (Printf.sprintf "child %d has no pointer from the level above" cp))
      children

  let level_stats ~order ~level nodes =
    let cap = float_of_int (2 * order) in
    let nnodes = List.length nodes in
    let keys = List.fold_left (fun acc (_, n) -> acc + Node.nkeys n) 0 nodes in
    let fills = List.map (fun (_, n) -> float_of_int (Node.nkeys n) /. cap) nodes in
    {
      level;
      nodes = nnodes;
      keys;
      min_fill = List.fold_left min 1.0 fills;
      avg_fill =
        (if nnodes = 0 then 0.0 else List.fold_left ( +. ) 0.0 fills /. float_of_int nnodes);
    }

  (** Full check. Call only when no operation is in flight. *)
  let check (t : (K.t, S.t) Handle.t) : report =
    let errors = ref [] in
    let err s = errors := s :: !errors in
    let prime = Prime_block.read t.prime in
    let height = prime.Prime_block.levels in
    let order = t.order in
    (* Walk all levels top-down, checking chains and parent/child
       agreement between consecutive levels. *)
    let levels_nodes =
      List.init height (fun i ->
          let level = height - 1 - i in
          match Prime_block.leftmost_at prime ~level with
          | None ->
              err (Printf.sprintf "prime block lacks leftmost pointer for level %d" level);
              (level, [])
          | Some p -> (level, walk_level t ~order ~err ~level p))
    in
    (* Root checks. *)
    (match levels_nodes with
    | (top, nodes) :: _ -> (
        match nodes with
        | [ (rp, r) ] ->
            if not r.Node.is_root then err (Printf.sprintf "root page %d: root bit unset" rp);
            if rp <> Prime_block.root prime then err "prime root <> leftmost of top level";
            ignore top
        | _ -> err (Printf.sprintf "top level has %d nodes, expected 1" (List.length nodes)))
    | [] -> err "empty prime block");
    List.iter
      (fun (_, nodes) ->
        List.iter
          (fun (p, n) ->
            if n.Node.is_root && p <> Prime_block.root prime then
              err (Printf.sprintf "page %d: stray root bit" p))
          nodes)
      levels_nodes;
    (* Parent/child agreement per consecutive pair. *)
    let rec pairs = function
      | (_, parents) :: ((_, children) :: _ as rest) ->
          check_parent_child t ~err parents children;
          pairs rest
      | [ _ ] | [] -> ()
    in
    pairs levels_nodes;
    (* Leaf key ordering across the whole chain. *)
    (match List.rev levels_nodes with
    | (0, leaves) :: _ ->
        let last = ref None in
        List.iter
          (fun (p, n) ->
            Array.iter
              (fun k ->
                (match !last with
                | Some k' when K.compare k' k >= 0 ->
                    err (Printf.sprintf "leaf %d: keys not globally increasing" p)
                | _ -> ());
                last := Some k)
              n.Node.keys)
          leaves
    | _ -> err "no leaf level");
    let total_keys =
      match List.rev levels_nodes with
      | (0, leaves) :: _ -> List.fold_left (fun acc (_, n) -> acc + Node.nkeys n) 0 leaves
      | _ -> 0
    in
    let total_nodes = List.fold_left (fun acc (_, ns) -> acc + List.length ns) 0 levels_nodes in
    let encoded_bytes =
      List.fold_left
        (fun acc (_, ns) ->
          List.fold_left (fun acc (_, n) -> acc + C.encoded_size n) acc ns)
        0 levels_nodes
    in
    {
      height;
      total_keys;
      total_nodes;
      levels = List.map (fun (l, ns) -> level_stats ~order ~level:l ns) levels_nodes;
      encoded_bytes;
      errors = List.rev !errors;
    }

  (** Page-leak check (quiescent): every live page in the store must be
      either reachable from the root through the level chains or a
      tombstone still awaiting epoch reclamation. Returns leaked page
      ids. Run after compaction + {!Repro_core.Sagiv.reclaim} to prove
      §5.3 releases everything. *)
  (* Live pages NOT reachable from the prime block through the level
     chains — the leak candidates of one walk over the current state. *)
  let unreachable_live (t : (K.t, S.t) Handle.t) : (Node.ptr, unit) Hashtbl.t =
    let prime = Prime_block.read t.Handle.prime in
    let reachable = Hashtbl.create 1024 in
    for level = 0 to prime.Prime_block.levels - 1 do
      match Prime_block.leftmost_at prime ~level with
      | None -> ()
      | Some p ->
          let rec go ptr =
            if not (Hashtbl.mem reachable ptr) then begin
              Hashtbl.replace reachable ptr ();
              match (try Some (S.get t.Handle.store ptr) with Page_store.Freed_page _ -> None) with
              | None -> ()
              | Some n -> (
                  match n.Node.link with Some q -> go q | None -> ())
            end
          in
          go p
    done;
    let leaked = Hashtbl.create 64 in
    S.iter t.Handle.store (fun p n ->
        (* version-record pages (durable MVCC) are owned by the Mvcc
           layer, not reachable through the level chains by design *)
        if
          n.Node.level <> Node.vrec_level
          && (not (Hashtbl.mem reachable p))
          && not (Node.is_deleted n)
        then Hashtbl.replace leaked p ());
    leaked

  let leak_check (t : (K.t, S.t) Handle.t) : Node.ptr list =
    (* [S.iter] below is only meaningful when quiescent; an epoch pin is
       cheap, definite evidence an operation is in flight, so refuse. *)
    if Epoch.min_pinned t.Handle.epoch <> max_int then
      invalid_arg "Validate.leak_check: tree not quiescent (operation in flight)";
    List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) (unreachable_live t) [])

  (** Online leak check — {!leak_check} with writers live. A single walk
      over-reports: a page mid-split (allocated but its left sibling's
      link not yet rewritten) or mid-retire is {e transiently}
      unreachable. So run three independent walks and
      intersect the candidate sets: a transient page is linked in (or
      freed) by the next walk, while a genuinely leaked page is
      unreachable in every one. Every returned page was live and
      unreachable across all passes. *)
  let leak_check_online (t : (K.t, S.t) Handle.t) : Node.ptr list =
    let s = ref (unreachable_live t) in
    for _ = 2 to 3 do
      Domain.cpu_relax ();
      let s' = unreachable_live t in
      let keep = Hashtbl.create (Hashtbl.length !s) in
      Hashtbl.iter (fun p () -> if Hashtbl.mem s' p then Hashtbl.replace keep p ()) !s;
      s := keep
    done;
    List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) !s [])

  (** Assert that every non-root node holds at least k pairs — the
      postcondition of a complete compression (§5.1). *)
  let check_occupancy (t : (K.t, S.t) Handle.t) : string list =
    let r = check t in
    let errs = ref r.errors in
    let prime = Prime_block.read t.prime in
    let height = prime.Prime_block.levels in
    for level = 0 to height - 1 do
      match Prime_block.leftmost_at prime ~level with
      | None -> ()
      | Some p ->
          let rec go ptr =
            let n = S.get t.store ptr in
            if Node.is_sparse ~order:t.order n && not n.Node.is_root then
              errs :=
                Printf.sprintf "page %d (level %d): %d pairs < k=%d" ptr level
                  (Node.nkeys n) t.order
                :: !errs;
            match n.Node.link with Some q -> go q | None -> ()
          in
          go p
    done;
    List.rev !errs
end

module Make (K : Key.S) = Make_on_store (K) (Store.For_key (K))
