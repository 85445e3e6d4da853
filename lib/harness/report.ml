(** Plain-text table and series rendering for the bench harness.

    Prints the rows the experiments report in a form that pastes cleanly
    into EXPERIMENTS.md. *)

let pad width s =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

(** Render [header :: rows] with columns sized to content. *)
let table ?(out = stdout) ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (fun r ->
      List.iteri (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c) r)
    all;
  let line r =
    let cells = List.mapi (fun i c -> pad widths.(i) c) r in
    output_string out ("  " ^ String.concat "  " cells ^ "\n")
  in
  line header;
  let rule = List.init ncols (fun i -> String.make widths.(i) '-') in
  line rule;
  List.iter line rows;
  flush out

let fmt_f ?(digits = 2) v = Printf.sprintf "%.*f" digits v

let fmt_si v =
  if v >= 1e9 then Printf.sprintf "%.2fG" (v /. 1e9)
  else if v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.1fk" (v /. 1e3)
  else Printf.sprintf "%.0f" v

let fmt_bytes v =
  let v = float_of_int v in
  if v >= 1048576. then Printf.sprintf "%.1fMiB" (v /. 1048576.)
  else if v >= 1024. then Printf.sprintf "%.1fKiB" (v /. 1024.)
  else Printf.sprintf "%.0fB" v

let heading title =
  print_string ("\n== " ^ title ^ " ==\n\n");
  flush stdout

let note s =
  print_string ("  " ^ s ^ "\n");
  flush stdout
