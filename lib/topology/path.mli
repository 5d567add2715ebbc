(** AD-level paths: ordered sequences of AD identifiers.

    A route in this library is always such a sequence (paper §4.1);
    these helpers implement the loop checks that source routing relies
    on (paper §4.4) and bounded enumeration of simple paths used by the
    policy oracle and the route servers. *)

type t = Ad.id list
(** Non-empty, source first, destination last. *)

val source : t -> Ad.id

val destination : t -> Ad.id

val hops : t -> int
(** Number of inter-AD hops, i.e. [length - 1]. *)

val is_loop_free : t -> bool
(** No AD appears twice: the check a source performs before using a
    synthesized route. *)

val cost : Graph.t -> t -> int option
(** Sum of link costs along the path, or [None] if some consecutive
    pair is not adjacent. *)

val is_valid : Graph.t -> t -> bool
(** Consecutive ADs are adjacent and the path is loop-free. *)

val successor_on : t -> Ad.id -> Ad.id option
(** The AD after [at] on the path: where a gateway on a source route
    hands the packet next. [None] when [at] is the destination or not
    on the path. *)

val transit_ads : t -> Ad.id list
(** Interior ADs (everything except the two endpoints). *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val equal : t -> t -> bool

val enumerate_simple :
  Graph.t ->
  src:Ad.id ->
  dst:Ad.id ->
  max_hops:int ->
  ?edge_ok:(Ad.id -> Ad.id -> bool) ->
  ?node_ok:(Ad.id -> bool) ->
  ?limit:int ->
  unit ->
  t list
(** All simple paths from [src] to [dst] with at most [max_hops] hops,
    by depth-first search. [edge_ok u v] prunes traversing the edge
    [u -> v]; [node_ok v] prunes using [v] as an interior (transit)
    node — the endpoints are never filtered. At most [limit] paths are
    returned (default 10_000). *)
