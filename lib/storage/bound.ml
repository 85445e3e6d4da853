(** Key bounds: a key extended with -infinity and +infinity.

    A node's range is the half-open interval (low, high]. The leftmost node
    at each level has [low = Neg_inf]; the rightmost has [high = Pos_inf]
    (paper §2.1: "the rightmost node at each level has +inf as its high
    value"). *)

type 'k t = Neg_inf | Key of 'k | Pos_inf

let compare key_compare a b =
  match (a, b) with
  | Neg_inf, Neg_inf -> 0
  | Neg_inf, _ -> -1
  | _, Neg_inf -> 1
  | Pos_inf, Pos_inf -> 0
  | Pos_inf, _ -> 1
  | _, Pos_inf -> -1
  | Key x, Key y -> key_compare x y

(** [compare_key kc k b]: position of the plain key [k] relative to bound [b]. *)
let compare_key key_compare k b =
  match b with Neg_inf -> 1 | Pos_inf -> -1 | Key y -> key_compare k y

let to_string key_to_string = function
  | Neg_inf -> "-inf"
  | Pos_inf -> "+inf"
  | Key k -> key_to_string k

let is_key = function Key _ -> true | Neg_inf | Pos_inf -> false

let get_key = function
  | Key k -> k
  | Neg_inf | Pos_inf -> invalid_arg "Bound.get_key: infinite bound"
