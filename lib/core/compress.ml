(** The scanning compression process (§5.1–5.2, Fig 7).

    [compress_level t ctx ~level:i] walks level [i+1] left to right via
    links; under each parent F it examines {e disjoint} pairs of adjacent
    children (A, B = A.link) and rearranges any pair containing a sparse
    node. Three nodes are locked simultaneously (F, then A, then B); each
    is unlocked immediately after it is rewritten.

    When B's pointer is not in F:
    - if B belongs in F (B.high <= F.high) and the pair needs rearranging,
      the process waits for the pending insertion of B's pair to land
      (bounded backoff here; the paper notes unbounded waiting is possible
      but "the chances of that happening are minuscule");
    - if B belongs in F but no rearranging is needed, move on within F;
    - if B belongs beyond F, move to F's right neighbour.

    A full pass ({!compress_pass}) applies this to every level bottom-up
    and then tries to collapse the root. Emptying a tree takes O(log2 n)
    passes (§5.1) — experiment E7 measures exactly that. *)

open Repro_storage

module Make_on_store (K : Key.S) (S : Page_store.S with type key = K.t) = struct
  module N = Node.Make (K)
  module A = Access.Make_on_store (K) (S)
  module R = Restructure.Make_on_store (K) (S)
  open Handle

  let bcompare = N.bcompare

  (* Loop cursor within the current parent: which child slot to examine
     next, expressed as "relative to this child pointer" so it survives
     concurrent pair insertions into F. *)
  type cursor =
    | First  (** start at F's leftmost pointer *)
    | After of Node.ptr  (** next pointer following this one *)
    | At of Node.ptr  (** retry this very pointer (the wait case) *)

  let max_wait_stages = 12

  (** One pass over level [level] (children), driving from level+1
      (parents). Returns the number of merges + redistributions made.

      [phase] (0 or 1) staggers the disjoint pairing: phase 1 starts at
      each parent's second pointer, so the children left unpaired by one
      phase are paired by the other. This is an extension beyond Fig 7 —
      the paper accepts that "if F has an odd number of children, then the
      last one will not be compressed"; alternating phases removes that
      blind spot across passes while changing nothing else. *)
  let compress_level ~phase (t : (K.t, S.t) Handle.t) (ctx : ctx) ~level =
    let changes = ref 0 in
    let prime = Prime_block.read t.prime in
    match Prime_block.leftmost_at prime ~level:(level + 1) with
    | None -> 0
    | Some start ->
        let current = ref (Some start) in
        let cursor = ref First in
        let backoff = Repro_util.Backoff.create () in
        let advance_parent f =
          current := f.Node.link;
          cursor := First
        in
        while !current <> None do
          let fptr = match !current with Some p -> p | None -> assert false in
          A.lock t ctx fptr;
          let f = S.get t.store fptr in
          (match f.Node.state with
          | Node.Deleted fwd ->
              (* Another compression process (queue-driven, or a root
                 collapse) removed F; continue from its forwarding target
                 if it is still at our level, else stop the scan. *)
              A.unlock t ctx fptr;
              let next =
                if fwd = Node.nil then None
                else
                  match (try Some (S.get t.store fwd) with Page_store.Freed_page _ -> None) with
                  | Some n when n.Node.level = level + 1 -> Some fwd
                  | Some _ | None -> None
              in
              current := next;
              cursor := First
          | Node.Live ->
              let slot_of ptr = N.child_slot f ptr in
              let idx =
                match !cursor with
                | First ->
                    if phase land 1 = 1 && Array.length f.Node.ptrs > 2 then Some 1
                    else Some 0
                | At p -> ( match slot_of p with Some j -> Some j | None -> Some 0)
                | After p -> (
                    match slot_of p with
                    | Some j when j + 1 < Array.length f.Node.ptrs -> Some (j + 1)
                    | Some _ -> None (* rightmost pointer processed: next parent *)
                    | None -> Some 0 (* F changed under us: rescan from the left *))
              in
              (match idx with
              | None ->
                  A.unlock t ctx fptr;
                  advance_parent f
              | Some j ->
                  let one_ptr = f.Node.ptrs.(j) in
                  A.lock t ctx one_ptr;
                  let a = S.get t.store one_ptr in
                  if Node.is_deleted a then begin
                    (* Cannot normally happen while we hold F (pair removal
                       needs F's lock); defensively skip this slot. *)
                    A.unlock t ctx one_ptr;
                    A.unlock t ctx fptr;
                    cursor := After one_ptr
                  end
                  else begin
                    match a.Node.link with
                    | None ->
                        (* A is the rightmost node of the level: done. *)
                        A.unlock t ctx one_ptr;
                        A.unlock t ctx fptr;
                        current := None
                    | Some two_ptr -> (
                        match slot_of two_ptr with
                        | Some right_slot ->
                            A.lock t ctx two_ptr;
                            let b = S.get t.store two_ptr in
                            let outcome =
                              R.rearrange t ctx ~fptr ~f ~right_slot ~one_ptr ~a ~two_ptr
                                ~b ~enqueue_children:false ~stack:[] ()
                            in
                            Repro_util.Backoff.reset backoff;
                            (match outcome with
                            | R.Merged ->
                                incr changes;
                                cursor := After one_ptr
                            | R.Redistributed ->
                                incr changes;
                                cursor := After two_ptr
                            | R.Untouched -> cursor := After two_ptr)
                        | None ->
                            (* B's pair is not (yet) in F. *)
                            let b = S.get t.store two_ptr in
                            let needs_rearranging =
                              Node.is_sparse ~order:t.order a
                              || Node.is_sparse ~order:t.order b
                            in
                            let belongs_in_f = bcompare b.Node.high f.Node.high <= 0 in
                            A.unlock t ctx one_ptr;
                            A.unlock t ctx fptr;
                            if belongs_in_f then
                              if needs_rearranging then
                                if Repro_util.Backoff.stage backoff < max_wait_stages
                                then begin
                                  (* wait for the pending insertion, retry *)
                                  ctx.stats.Stats.waits <- ctx.stats.Stats.waits + 1;
                                  Repro_util.Backoff.once backoff;
                                  cursor := At one_ptr
                                end
                                else begin
                                  (* give up on this pair for this pass *)
                                  Repro_util.Backoff.reset backoff;
                                  cursor := After one_ptr
                                end
                              else cursor := After one_ptr
                            else advance_parent f)
                  end))
        done;
        !changes

  (** One full compression pass: every level bottom-up, then a root
      collapse attempt. Returns the number of structural changes. *)
  let compress_pass ?(phase = 0) (t : (K.t, S.t) Handle.t) (ctx : ctx) =
    Epoch.with_pin t.epoch ~slot:ctx.slot (fun () ->
        let changes = ref 0 in
        let level = ref 0 in
        let continue_ = ref true in
        while !continue_ do
          let prime = Prime_block.read t.prime in
          if !level + 1 >= prime.Prime_block.levels then continue_ := false
          else begin
            changes := !changes + compress_level ~phase t ctx ~level:!level;
            incr level
          end
        done;
        while R.try_collapse_root t ctx do
          incr changes
        done;
        !changes)

  (** Run passes until none makes a change (at most 1000 passes);
      returns the number of passes that did change something (E7's
      metric). *)
  let compress_to_fixpoint (t : (K.t, S.t) Handle.t) (ctx : ctx) =
    let max_passes = 1000 in
    (* Alternate pairing phases so that, at the fixpoint, every adjacent
       sibling pair has been examined (see [compress_level]'s [phase]).
       Stop after a changeless pass in EACH phase. *)
    let rec go total changed quiet =
      if total >= max_passes || quiet >= 2 then changed
      else if compress_pass ~phase:(total land 1) t ctx = 0 then
        go (total + 1) changed (quiet + 1)
      else go (total + 1) (changed + 1) 0
    in
    go 0 0 0
end

module Make (K : Key.S) = Make_on_store (K) (Store.For_key (K))
