(** Cache-friendly striped counters.

    A counter is an array of atomics, one stripe per domain slot, padded by
    indexing stride to reduce false sharing. Increments are wait-free per
    stripe; [read] sums stripes and is approximate under concurrency (exact
    once quiescent), which is all the benches need. *)

let stride = 8 (* ints between live slots; crude false-sharing padding *)

type t = { slots : int Atomic.t array; n : int }

let create ?(domains = 16) () =
  { slots = Array.init (domains * stride) (fun _ -> Atomic.make 0); n = domains }

let incr t ~slot = Atomic.incr t.slots.((slot mod t.n) * stride)

let read t =
  let total = ref 0 in
  for i = 0 to t.n - 1 do
    total := !total + Atomic.get t.slots.(i * stride)
  done;
  !total

let clear t =
  for i = 0 to t.n - 1 do
    Atomic.set t.slots.(i * stride) 0
  done
