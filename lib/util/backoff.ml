(** Truncated exponential backoff for retry loops.

    Spins with [Domain.cpu_relax] for a geometrically growing number of
    iterations, capped. Used by processes that must "wait for a while and
    then read again" (paper §3.3 and §5.2 case 1) without blocking. *)

type t = { mutable spins : int }

let max_spins = 1 lsl 14

let create () = { spins = 1 }

let reset t = t.spins <- 1

(** Spin once; subsequent calls spin longer, up to the cap. *)
let once t =
  for _ = 1 to t.spins do
    Domain.cpu_relax ()
  done;
  if t.spins < max_spins then t.spins <- t.spins * 2

(** Current backoff stage, exposed for "give up after N stages" policies. *)
let stage t =
  let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
  log2 t.spins 0
