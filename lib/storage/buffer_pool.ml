(** Buffer pool over a {!Paged_file}: a fixed number of in-memory frames
    with pin/unpin, dirty tracking, and clock (second-chance) eviction —
    the component that turns "each node corresponds to a page or block of
    secondary storage" (§2.2) into a runnable memory hierarchy.

    Single-owner (no internal locking): its one user is the sequential
    [Disk_btree] baseline. The concurrent trees run on {!Store} or on
    {!Paged_store}, whose decoded-node cache does its own IO on the
    {!Paged_file} with no raw-frame pool beneath it. *)

type frame = {
  mutable page : int;  (** disk page held, or -1 *)
  mutable data : Bytes.t;
  mutable dirty : bool;
  mutable pins : int;
  mutable referenced : bool;  (** clock bit *)
}

type t = {
  file : Paged_file.t;
  frames : frame array;
  table : (int, int) Hashtbl.t;  (** disk page -> frame index *)
  mutable hand : int;  (** clock hand *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
}

let create ~frames file =
  if frames < 1 then invalid_arg "Buffer_pool.create: need at least one frame";
  {
    file;
    frames =
      Array.init frames (fun _ ->
          {
            page = -1;
            data = Bytes.create (Paged_file.page_size file);
            dirty = false;
            pins = 0;
            referenced = false;
          });
    table = Hashtbl.create (2 * frames);
    hand = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
  }

let flush_frame t fi =
  let f = t.frames.(fi) in
  if f.dirty && f.page >= 0 then begin
    Paged_file.write t.file f.page f.data;
    t.writebacks <- t.writebacks + 1;
    f.dirty <- false
  end

(* Clock sweep: find an unpinned frame, giving referenced frames a second
   chance. Raises if everything is pinned. *)
let find_victim t =
  let n = Array.length t.frames in
  let rec sweep remaining =
    if remaining = 0 then failwith "Buffer_pool: all frames pinned";
    let fi = t.hand in
    t.hand <- (t.hand + 1) mod n;
    let f = t.frames.(fi) in
    if f.pins > 0 then sweep (remaining - 1)
    else if f.referenced then begin
      f.referenced <- false;
      sweep (remaining - 1)
    end
    else fi
  in
  sweep (2 * n)

(** Pin a disk page into a frame and return its bytes. The buffer stays
    valid (and its mutations tracked, see {!unpin}) until unpinned. *)
let pin t page =
  match Hashtbl.find_opt t.table page with
  | Some fi ->
      let f = t.frames.(fi) in
      t.hits <- t.hits + 1;
      f.pins <- f.pins + 1;
      f.referenced <- true;
      f.data
  | None ->
      t.misses <- t.misses + 1;
      let fi = find_victim t in
      let f = t.frames.(fi) in
      if f.page >= 0 then begin
        flush_frame t fi;
        Hashtbl.remove t.table f.page;
        t.evictions <- t.evictions + 1
      end;
      if page < Paged_file.pages t.file then Paged_file.read_into t.file page f.data
      else Bytes.fill f.data 0 (Bytes.length f.data) '\000';
      f.page <- page;
      f.dirty <- false;
      f.pins <- 1;
      f.referenced <- true;
      Hashtbl.replace t.table page fi;
      f.data

let unpin t page ~dirty =
  match Hashtbl.find_opt t.table page with
  | None -> invalid_arg "Buffer_pool.unpin: page not resident"
  | Some fi ->
      let f = t.frames.(fi) in
      if f.pins <= 0 then invalid_arg "Buffer_pool.unpin: not pinned";
      f.pins <- f.pins - 1;
      if dirty then f.dirty <- true

(** Allocate a fresh disk page (zero-filled, pinned). *)
let alloc t =
  (* materialise the page on disk so Paged_file's contiguity holds *)
  let page = Paged_file.append t.file (Bytes.make (Paged_file.page_size t.file) '\000') in
  ignore (pin t page);
  page

let flush_all t =
  Array.iteri (fun fi _ -> flush_frame t fi) t.frames;
  Paged_file.sync t.file

type stats = { hits : int; misses : int; evictions : int; writebacks : int }

let stats (t : t) =
  { hits = t.hits; misses = t.misses; evictions = t.evictions; writebacks = t.writebacks }

let hit_ratio (t : t) =
  let total = t.hits + t.misses in
  if total = 0 then 1.0 else float_of_int t.hits /. float_of_int total
