(** Deterministic, splittable pseudo-random number generator.

    The implementation is splitmix64. Every experiment in this repository
    takes an integer seed and derives all randomness from a single [t],
    so identical seeds reproduce identical topologies, policies and
    schedules on any platform. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator. Generators created from the
    same seed produce the same sequence. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy evolves independently. *)

val derive : int -> string -> t
(** [derive seed label] is a generator determined by the (seed, label)
    pair: the same pair always yields the same stream, and distinct
    labels yield independent streams of the same run seed. Subsystems
    that draw side by side (churn, fault plans, workloads) each derive
    their own label so enabling one cannot perturb the others. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each subsystem (topology, policies, failures) its own
    stream so that adding draws to one does not perturb the others. *)

val bits64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [\[0, bound)]. [bound] must be
    positive. *)

val int_in_range : t -> min:int -> max:int -> int
(** [int_in_range t ~min ~max] draws uniformly from [\[min, max\]]
    inclusive. Requires [min <= max]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p] (clamped to [\[0,1\]]). *)

type odds
(** A probability prepared for many draws. *)

val odds : float -> odds

val hit : t -> odds -> bool
(** [hit t (odds p)] is [chance t p]: the same decision from the same
    draw (none when [p] is at most 0 or at least 1), at about two
    thirds of the cost, for loops that draw one probability many
    times. *)

val choose : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. @raise Invalid_argument on []. *)

val choose_array : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample : t -> int -> 'a list -> 'a list
(** [sample t k xs] draws [min k (length xs)] distinct elements of [xs],
    uniformly without replacement. *)
