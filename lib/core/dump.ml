(** Debug pretty-printing of a quiescent tree. *)

open Repro_storage

module Make (K : Key.S) = struct
  module N = Node.Make (K)
  module S = Store.For_key (K)
  open Handle

  let pp fmt (t : (K.t, S.t) Handle.t) =
    let prime = Prime_block.read t.prime in
    Format.fprintf fmt "@[<v>tree: height=%d root=%d order=%d@,"
      prime.Prime_block.levels (Prime_block.root prime) t.order;
    for i = 0 to prime.Prime_block.levels - 1 do
      let level = prime.Prime_block.levels - 1 - i in
      Format.fprintf fmt "level %d:@," level;
      (match Prime_block.leftmost_at prime ~level with
      | None -> Format.fprintf fmt "  (missing)@,"
      | Some p ->
          let rec go ptr =
            match (try Some (S.get t.store ptr) with Page_store.Freed_page _ -> None) with
            | None -> Format.fprintf fmt "  #%d <freed>@," ptr
            | Some n ->
                Format.fprintf fmt "  #%d %a@," ptr N.pp n;
                if not (Node.is_deleted n) then
                  match n.Node.link with Some q -> go q | None -> ()
          in
          go p);
      ()
    done;
    Format.fprintf fmt "@]"

  let to_string t = Format.asprintf "%a" pp t
  let print t = print_string (to_string t)
end
