type id = int

type kind = Hierarchical | Lateral | Bypass

type t = { id : id; a : Ad.id; b : Ad.id; kind : kind; cost : int; delay : float }

let make ~id ~a ~b ?(cost = 1) ?(delay = 1.0) kind =
  if a = b then invalid_arg "Link.make: self loop";
  if cost < 1 then invalid_arg "Link.make: cost < 1";
  if not (Float.is_finite delay && delay > 0.0) then
    invalid_arg "Link.make: delay not finite and > 0";
  { id; a; b; kind; cost; delay }

let other_end t x =
  if x = t.a then t.b
  else if x = t.b then t.a
  else invalid_arg "Link.other_end: not an endpoint"

let connects t x y = (t.a = x && t.b = y) || (t.a = y && t.b = x)

let kind_to_string = function
  | Hierarchical -> "hierarchical"
  | Lateral -> "lateral"
  | Bypass -> "bypass"
