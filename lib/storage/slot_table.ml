(** Lock-free id allocator over a table of slots that never move — the
    allocation half of the paper's storage model (§2.2, §5.3), shared by
    {!Store}, {!Paged_store} and {!Record_store}.

    Slots live in fixed-size chunks, installed on demand by a
    compare-and-set and never moved, so readers index without
    synchronisation. A released id goes on a Treiber-stack free list and
    is handed out again before the bump frontier grows. *)

let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let max_chunks = 1 lsl 14 (* 64 M ids *)

type 'a t = {
  name : string;  (** the owning store, for error messages *)
  make : unit -> 'a;
  chunks : 'a array option Atomic.t array;
  next : int Atomic.t;  (** bump frontier: every id handed out is below it *)
  free_list : int list Atomic.t;
  allocated : int Atomic.t;  (** ids ever handed out *)
  freed : int Atomic.t;  (** ids ever released *)
  on_free_list : int -> unit;  (** told +1 / -1 after each push / pop *)
}

let create ?(on_free_list = ignore) ~name make =
  {
    name;
    make;
    chunks = Array.init max_chunks (fun _ -> Atomic.make None);
    next = Atomic.make 0;
    free_list = Atomic.make [];
    allocated = Atomic.make 0;
    freed = Atomic.make 0;
    on_free_list;
  }

let ensure_chunk t ci =
  if ci >= max_chunks then failwith (t.name ^ ": out of slots");
  match Atomic.get t.chunks.(ci) with
  | Some c -> c
  | None ->
      let fresh = Array.init chunk_size (fun _ -> t.make ()) in
      if Atomic.compare_and_set t.chunks.(ci) None (Some fresh) then fresh
      else (
        match Atomic.get t.chunks.(ci) with Some c -> c | None -> assert false)

let not_allocated t id =
  invalid_arg (Printf.sprintf "%s: slot %d not allocated" t.name id)

let get t id =
  match Atomic.get t.chunks.(id lsr chunk_bits) with
  | Some c -> c.(id land (chunk_size - 1))
  | None -> not_allocated t id

let find t id =
  if id < 0 || id >= Atomic.get t.next then None
  else
    match Atomic.get t.chunks.(id lsr chunk_bits) with
    | Some c -> Some c.(id land (chunk_size - 1))
    | None -> None

let pop_free t =
  let rec go () =
    match Atomic.get t.free_list with
    | [] -> None
    | p :: rest as old ->
        if Atomic.compare_and_set t.free_list old rest then begin
          t.on_free_list (-1);
          Some p
        end
        else go ()
  in
  go ()

let push_free t p =
  let rec go () =
    let old = Atomic.get t.free_list in
    if not (Atomic.compare_and_set t.free_list old (p :: old)) then go ()
  in
  go ();
  t.on_free_list 1

let alloc t =
  Atomic.incr t.allocated;
  match pop_free t with
  | Some p -> p
  | None ->
      let p = Atomic.fetch_and_add t.next 1 in
      ignore (ensure_chunk t (p lsr chunk_bits));
      p

let release t id =
  Atomic.incr t.freed;
  push_free t id

let frontier t = Atomic.get t.next
let allocated t = Atomic.get t.allocated
let freed t = Atomic.get t.freed
let live t = Atomic.get t.allocated - Atomic.get t.freed
let free_ids t = Atomic.get t.free_list

let restore t ~next ~allocated ~freed ~free =
  Atomic.set t.next next;
  for ci = 0 to ((next + chunk_size - 1) lsr chunk_bits) - 1 do
    ignore (ensure_chunk t ci)
  done;
  Atomic.set t.free_list free;
  Atomic.set t.allocated allocated;
  Atomic.set t.freed freed

let extend t id =
  let next = Atomic.get t.next in
  if id >= next then begin
    ignore (Atomic.fetch_and_add t.allocated (id + 1 - next));
    Atomic.set t.next (id + 1)
  end;
  ignore (ensure_chunk t (id lsr chunk_bits))
