(** Workload specification and generation.

    A workload is an operation mix over a key space with a distribution;
    each worker domain samples operations from its own PRNG stream, so
    generation is contention-free and runs are reproducible from a seed. *)

open Repro_util

type op = Search of int | Insert of int * int | Delete of int

type mix = {
  search : float;
  insert : float;
  delete : float;  (** fractions; must sum to 1 *)
}

let mix ?(search = 0.0) ?(insert = 0.0) ?(delete = 0.0) () =
  let total = search +. insert +. delete in
  if Float.abs (total -. 1.0) > 1e-6 then invalid_arg "Workload.mix: fractions must sum to 1";
  { search; insert; delete }

let search_only = { search = 1.0; insert = 0.0; delete = 0.0 }
let insert_only = { search = 0.0; insert = 1.0; delete = 0.0 }
let read_mostly = { search = 0.8; insert = 0.2; delete = 0.0 }
let balanced = { search = 0.5; insert = 0.5; delete = 0.0 }
let mixed_sid = { search = 0.5; insert = 0.3; delete = 0.2 }
let delete_heavy = { search = 0.2; insert = 0.1; delete = 0.7 }

type spec = {
  op_mix : mix;
  key_space : int;  (** keys drawn from [0, key_space) *)
  dist : Distribution.kind;
  preload : int;  (** keys inserted before measurement starts *)
}

let spec ?(op_mix = balanced) ?(key_space = 100_000) ?(dist = Distribution.Uniform)
    ?(preload = 0) () =
  { op_mix; key_space; dist; preload }

(** Per-worker sampler. *)
type sampler = { rng : Splitmix.t; dist : Distribution.t; op_mix : mix }

let sampler ~seed ~worker spec =
  let rng = Splitmix.create (seed + (worker * 0x9E3779B9) + 1) in
  { rng; dist = Distribution.create ~space:spec.key_space spec.dist; op_mix = spec.op_mix }

let next_op s =
  let k = Distribution.sample s.dist s.rng in
  let r = Splitmix.float s.rng in
  if r < s.op_mix.search then Search k
  else if r < s.op_mix.search +. s.op_mix.insert then Insert (k, k * 2)
  else Delete k

(** Deterministic preload set: the first [n] keys of a seeded permutation
    of the key space, inserted before any measurement. *)
let preload_keys ~seed spec =
  let n = min spec.preload spec.key_space in
  let rng = Splitmix.create (seed lxor 0x5DEECE66) in
  let perm = Splitmix.permutation rng spec.key_space in
  Array.sub perm 0 n

let mix_to_string m =
  Printf.sprintf "S%.0f/I%.0f/D%.0f" (100. *. m.search) (100. *. m.insert) (100. *. m.delete)
