(** Reference model: replay an operation sequence against [Map] and
    against a tree, comparing every return value (data equivalence in the
    §4 sense for serial schedules). *)

open Repro_core
open Repro_baseline
module IntMap = Map.Make (Int)

type divergence = {
  index : int;
  op : Workload.op;
  expected : string;
  got : string;
}

let string_of_op = function
  | Workload.Search k -> Printf.sprintf "search %d" k
  | Workload.Insert (k, v) -> Printf.sprintf "insert %d->%d" k v
  | Workload.Delete k -> Printf.sprintf "delete %d" k

(** Replay [ops] sequentially on [tree] and on a [Map]; returns the first
    divergence, if any, and the final model. *)
let replay (tree : Tree_intf.handle) (ctx : Handle.ctx) ops :
    divergence option * int IntMap.t =
  let model = ref IntMap.empty in
  let diverged = ref None in
  List.iteri
    (fun index op ->
      if !diverged = None then begin
        match op with
        | Workload.Search k ->
            let expected = IntMap.find_opt k !model in
            let got = tree.Tree_intf.search ctx k in
            if expected <> got then
              diverged :=
                Some
                  {
                    index;
                    op;
                    expected =
                      (match expected with Some v -> string_of_int v | None -> "none");
                    got = (match got with Some v -> string_of_int v | None -> "none");
                  }
        | Workload.Insert (k, v) ->
            let expected = if IntMap.mem k !model then `Duplicate else `Ok in
            if expected = `Ok then model := IntMap.add k v !model;
            let got = tree.Tree_intf.insert ctx k v in
            if expected <> got then
              diverged :=
                Some
                  {
                    index;
                    op;
                    expected = (if expected = `Ok then "ok" else "dup");
                    got = (if got = `Ok then "ok" else "dup");
                  }
        | Workload.Delete k ->
            let expected = IntMap.mem k !model in
            model := IntMap.remove k !model;
            let got = tree.Tree_intf.delete ctx k in
            if expected <> got then
              diverged :=
                Some
                  {
                    index;
                    op;
                    expected = string_of_bool expected;
                    got = string_of_bool got;
                  }
      end)
    ops;
  (!diverged, !model)
