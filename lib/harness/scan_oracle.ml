(** Scan-consistency oracle: decide whether one observed scan could be a
    point-in-time cut of the history the writer domains actually
    executed. See the interface for the model. *)

type op = {
  o_key : int;
  o_value : int option;  (** [None] = delete *)
  o_start : float;
  o_end : float;
}

type log = { mutable ops : op list (* reverse chronological *) }

let log_create () = { ops = [] }

let record log ~key ~value ~start ~stop =
  log.ops <- { o_key = key; o_value = value; o_start = start; o_end = stop } :: log.ops

let logged log ~key ~value f =
  let start = Driver.now () in
  let r = f () in
  record log ~key ~value ~start ~stop:(Driver.now ());
  r

(* -- interval sets -- *)

(* A feasible set is a list of [lo, hi] monotonic-clock intervals (hi may be
   infinity), kept in chronological order. *)
let inter_two a b =
  List.concat_map
    (fun (alo, ahi) ->
      List.filter_map
        (fun (blo, bhi) ->
          let lo = Float.max alo blo and hi = Float.min ahi bhi in
          if lo <= hi then Some (lo, hi) else None)
        b)
    a

(* The monotonic-clock intervals during which key [k]'s visible value could
   have been [obs], given the owner's chronological op list. Candidate
   moments: after any op whose effect equals [obs] and before the next
   op on the same key completed; plus "before the first op on [k]" when
   the initial value matches. Bounds are conservative (an op's effect
   lands somewhere inside its [o_start, o_end] window), so a correct
   cut always passes. *)
let key_feasible ~initial ~(ops : op list) ~key ~obs =
  let mine = List.filter (fun o -> o.o_key = key) ops in
  let rec walk acc prev_matches lower = function
    | [] -> if prev_matches then (lower, Float.infinity) :: acc else acc
    | o :: rest ->
        let acc =
          if prev_matches then (lower, o.o_end) :: acc else acc
        in
        walk acc (o.o_value = obs) o.o_start rest
  in
  List.rev (walk [] (initial = obs) Float.neg_infinity mine)

(* -- the check -- *)

let check ~(logs : log array) ~(owner : int -> int) ~(initial : int -> int option)
    ~(universe : int list) ~(scan : (int * int) list) : string list =
  let violations = ref [] in
  let note fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  (* scanned pairs must be sorted, unique, and inside the universe *)
  let tbl = Hashtbl.create (List.length scan) in
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if a >= b then note "scan not strictly ascending at key %d" b;
        sorted rest
    | _ -> ()
  in
  sorted scan;
  List.iter
    (fun (k, v) ->
      if Hashtbl.mem tbl k then note "key %d appears twice in the scan" k;
      Hashtbl.replace tbl k v)
    scan;
  let chrono = Array.map (fun l -> List.rev l.ops) logs in
  (* per-writer feasibility: every owned key's observation must admit a
     common instant in that writer's own history *)
  let writer_sets =
    Array.mapi
      (fun w ops ->
        let keys = List.filter (fun k -> owner k = w) universe in
        List.fold_left
          (fun feas k ->
            let obs = Hashtbl.find_opt tbl k in
            let kf = key_feasible ~initial:(initial k) ~ops ~key:k ~obs in
            (if kf = [] then
               note "writer %d: key %d observed %s, never its visible value" w
                 k
                 (match obs with
                 | Some v -> string_of_int v
                 | None -> "absent"));
            inter_two feas kf)
          [ (Float.neg_infinity, Float.infinity) ]
          keys)
      chrono
  in
  Array.iteri
    (fun w feas ->
      if feas = [] then
        note "writer %d: observations mix two of its states (no single cut)"
          w)
    writer_sets;
  (* cross-writer: one instant must satisfy every writer —
     the scan is a cut of the global history, not per-writer cuts *)
  let all =
    Array.fold_left inter_two [ (Float.neg_infinity, Float.infinity) ]
      writer_sets
  in
  if all = [] && Array.for_all (fun f -> f <> []) writer_sets then
    note "no common instant across writers: the scan is not a single cut";
  List.rev !violations
