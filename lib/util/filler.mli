(** Arrays of fresh blocks that do not force a minor collection.

    Creating an array of more than 256 words from a young element
    forces a minor collection, and [Array.init] and [Array.map] start
    from their first element, young when it is a fresh block. Per-AD
    arrays of records above 256 ADs are therefore made over a static
    filler and filled after. *)

val init : filler:'a -> int -> (int -> 'a) -> 'a array
(** [init ~filler n f] is [Array.init n f], made over [filler]: a
    value built once (a top-level constant or an immediate), never
    handed out. *)
