(** Workload specification and per-worker operation sampling. Each worker
    draws from its own PRNG stream; runs are reproducible from a seed. *)

open Repro_util

type op = Search of int | Insert of int * int | Delete of int

type mix = { search : float; insert : float; delete : float }

val mix : ?search:float -> ?insert:float -> ?delete:float -> unit -> mix
(** @raise Invalid_argument unless the fractions sum to 1. *)

val search_only : mix
val insert_only : mix
val read_mostly : mix  (** 80/20 search/insert *)

val balanced : mix  (** 50/50 search/insert *)

val mixed_sid : mix  (** 50/30/20 search/insert/delete *)

val delete_heavy : mix  (** 20/10/70 *)

type spec = {
  op_mix : mix;
  key_space : int;
  dist : Distribution.kind;
  preload : int;
}

val spec :
  ?op_mix:mix -> ?key_space:int -> ?dist:Distribution.kind -> ?preload:int -> unit -> spec

type sampler

val sampler : seed:int -> worker:int -> spec -> sampler
val next_op : sampler -> op

val preload_keys : seed:int -> spec -> int array
(** Deterministic distinct keys to insert before measurement. *)

val mix_to_string : mix -> string
