(** Operation traces: record and replay workloads deterministically.
    Text format: [i <key> <value>] / [d <key>] / [s <key>] / [# comment]. *)

type error = { line : int; text : string }

exception Parse_error of error

val save : string -> Workload.op list -> unit

val load : string -> Workload.op list
(** @raise Parse_error on a malformed line. *)

val generate : seed:int -> ops:int -> Workload.spec -> Workload.op list
(** What a single worker of this spec would do. *)

val replay :
  Repro_baseline.Tree_intf.handle ->
  Repro_core.Handle.ctx ->
  Workload.op list ->
  int * int * int
(** Returns (successful inserts, successful deletes, hits). *)
