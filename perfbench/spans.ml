(* In-memory span recorder for the traced ladder run.

   A span is one timed call into a layer: name, start, end, the span
   that encloses it, and the batch it belongs to. Per-name aggregates
   (total, self time, every duration) cover the whole run; the raw span
   records are kept for the first [cap] spans and written out when the
   run ends, so memory stays bounded on long runs. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* raw span records kept per recorder *)
let cap = 20_000

type agg = { mutable total : int; mutable self : int; durs : Samples.t }

type t = {
  names : (string, int) Hashtbl.t;
  mutable by_id : string array;
  mutable aggs : agg array;
  (* open-span stack *)
  st_id : int array;
  st_name : int array;
  st_start : int array;
  st_child : int array;
  mutable depth : int;
  mutable next_id : int;
  mutable batch : int;
  (* raw records, indexed by span id while id < cap *)
  r_name : int array;
  r_start : int array;
  r_end : int array;
  r_parent : int array;
  r_batch : int array;
}

let create () =
  {
    names = Hashtbl.create 32;
    by_id = [||];
    aggs = [||];
    st_id = Array.make 16 0;
    st_name = Array.make 16 0;
    st_start = Array.make 16 0;
    st_child = Array.make 16 0;
    depth = 0;
    next_id = 0;
    batch = -1;
    r_name = Array.make cap 0;
    r_start = Array.make cap 0;
    r_end = Array.make cap 0;
    r_parent = Array.make cap 0;
    r_batch = Array.make cap 0;
  }

(* Intern a span name; call before timing starts. *)
let name t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
      let i = Array.length t.by_id in
      Hashtbl.add t.names s i;
      t.by_id <- Array.append t.by_id [| s |];
      t.aggs <-
        Array.append t.aggs
          [| { total = 0; self = 0; durs = Samples.create () } |];
      i

let set_batch t b = t.batch <- b

let enter t nm =
  let d = t.depth in
  t.st_id.(d) <- t.next_id;
  t.st_name.(d) <- nm;
  t.st_child.(d) <- 0;
  t.next_id <- t.next_id + 1;
  t.depth <- d + 1;
  t.st_start.(d) <- now ()

let leave t =
  let stop = now () in
  let d = t.depth - 1 in
  t.depth <- d;
  let dur = stop - t.st_start.(d) in
  let a = t.aggs.(t.st_name.(d)) in
  Samples.push a.durs dur;
  a.total <- a.total + dur;
  a.self <- a.self + dur - t.st_child.(d);
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
  let id = t.st_id.(d) in
  if id < cap then begin
    t.r_name.(id) <- t.st_name.(d);
    t.r_start.(id) <- t.st_start.(d);
    t.r_end.(id) <- stop;
    t.r_parent.(id) <- (if d > 0 then t.st_id.(d - 1) else -1);
    t.r_batch.(id) <- t.batch
  end

let agg t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> Some t.aggs.(i)
  | None -> None

let count t s = match agg t s with Some a -> Samples.count a.durs | None -> 0
let total t s = match agg t s with Some a -> a.total | None -> 0
let self t s = match agg t s with Some a -> a.self | None -> 0

let mean t s =
  match agg t s with
  | Some a when Samples.count a.durs > 0 ->
      float_of_int a.total /. float_of_int (Samples.count a.durs)
  | _ -> 0.

let percentile t s p =
  match agg t s with Some a -> Samples.percentile a.durs p | None -> nan

let csv_header = "rung,id,name,start_ns,end_ns,parent,batch\n"

(* One CSV row per recorded span, tagged with the ladder rung. *)
let write t oc ~rung =
  for id = 0 to min t.next_id cap - 1 do
    Printf.fprintf oc "%s,%d,%s,%d,%d,%d,%d\n" rung id t.by_id.(t.r_name.(id))
      t.r_start.(id) t.r_end.(id) t.r_parent.(id) t.r_batch.(id)
  done
