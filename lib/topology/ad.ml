type id = int

type klass = Stub | Multihomed | Transit | Hybrid

type level = Backbone | Regional | Metro | Campus

type t = { id : id; name : string; klass : klass; level : level }

let make ~id ~name ~klass ~level = { id; name; klass; level }

let is_transit_capable t =
  match t.klass with
  | Transit | Hybrid -> true
  | Stub | Multihomed -> false

let klass_to_string = function
  | Stub -> "stub"
  | Multihomed -> "multihomed"
  | Transit -> "transit"
  | Hybrid -> "hybrid"

let level_to_string = function
  | Backbone -> "backbone"
  | Regional -> "regional"
  | Metro -> "metro"
  | Campus -> "campus"

let level_rank = function
  | Backbone -> 0
  | Regional -> 1
  | Metro -> 2
  | Campus -> 3

let equal a b = a.id = b.id && a.name = b.name && a.klass = b.klass && a.level = b.level
