(** Reference model: sequential replay against a [Map] (data equivalence
    for serial schedules, §4). *)

open Repro_core
open Repro_baseline
module IntMap : Map.S with type key = int

type divergence = { index : int; op : Workload.op; expected : string; got : string }

val string_of_op : Workload.op -> string

val replay :
  Tree_intf.handle -> Handle.ctx -> Workload.op list -> divergence option * int IntMap.t
(** Replay sequentially on the tree and the model; first divergence if
    any, and the final model. *)
