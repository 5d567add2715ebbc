(** Fixed-size log2-bucket histograms.

    A histogram is 64 integer buckets — bucket [i] counts recorded
    values in [[2^i, 2^{i+1})], with bucket 0 also absorbing everything
    below 1 and bucket 63 everything at or above [2^63] — plus exact
    [count], [sum], [min] and [max]. {!record} is allocation-free (a
    handful of loads and stores, no boxing, no hashing), so it can sit
    on query and simulation hot paths; {!merge} is exact (bucket-wise
    addition), so per-shard histograms recorded in forked campaign
    workers combine into the same histogram one process would have
    recorded — the mergeable-accounting substrate the paper's
    continuous message/computation evaluation (§5.2–5.3) needs at
    scale.

    Quantiles are estimated by linear interpolation inside the bucket
    holding the requested rank and clamped to the exact [min]/[max]:
    the estimate always lands within one log2 bucket of the exact
    order statistic. *)

type t

val num_buckets : int
(** 64. *)

val create : unit -> t

val clear : t -> unit

val copy : t -> t

val record : t -> float -> unit
(** Record one value. Negative, NaN and sub-1 values land in bucket 0;
    allocation-free. *)

val record_int : t -> int -> unit

val count : t -> int

val sum : t -> float

val mean : t -> float
(** 0 when empty. *)

val min_value : t -> float
(** Exact minimum recorded value; 0 when empty. *)

val max_value : t -> float
(** Exact maximum recorded value; 0 when empty. *)

val quantile : t -> float -> float
(** [quantile t p] for [p] in [0,100]: the estimated [p]-th
    percentile under the same rank convention as
    {!Pr_util.Stats.percentile} (rank [p/100 * (count-1)]). 0 when
    empty. *)

val bucket_index : float -> int
(** The bucket a value lands in (exposed for tests and displays). *)

val bucket_bounds : int -> float * float
(** [(lo, hi)] with the bucket covering [[lo, hi)]. *)

val buckets : t -> (int * int) list
(** Non-empty buckets as [(index, count)], ascending. *)

val merge : into:t -> t -> unit
(** Exact: bucket-wise addition, count/sum added, min/max combined.
    Commutative and associative, and equivalent to recording every
    value into one histogram (sums up to float rounding). *)

val diff : after:t -> before:t -> t
(** Bucket-wise subtraction for snapshot deltas. [count] and [sum]
    subtract exactly; [min]/[max] are re-derived from the surviving
    buckets' bounds (bucket-resolution approximations). *)

val equal : t -> t -> bool
(** Buckets, count, min and max exactly; sums within relative 1e-9
    (merge order changes float addition order). *)

val to_json : t -> Pr_util.Json.t

val of_json : Pr_util.Json.t -> (t, string) result
