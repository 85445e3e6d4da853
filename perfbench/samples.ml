(* A growable buffer of int samples (nanoseconds, mostly) and the one
   percentile convention the benchmark uses: nearest rank. *)

type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 1024 0; n = 0 }
let count s = s.n

let push s v =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- v;
  s.n <- s.n + 1

let append dst src =
  for i = 0 to src.n - 1 do
    push dst src.a.(i)
  done

(* Nearest-rank percentile, p in (0, 1]; nan when there are no samples. *)
let percentile s p =
  if s.n = 0 then nan
  else begin
    let d = Array.sub s.a 0 s.n in
    Array.sort compare d;
    float_of_int d.(max 0 (int_of_float (ceil (p *. float_of_int s.n)) - 1))
  end
