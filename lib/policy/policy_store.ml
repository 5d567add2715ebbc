module Reg = Pr_telemetry.Registry

(* Store-wide instrumentation: handles resolved once at module init so
   policy flips and lazy compilations on hot paths never hash names. *)
let m_flips = Reg.counter Reg.default "policy.set_transit"
let m_compiles = Reg.counter Reg.default "policy.compilations"
let m_version = Reg.gauge Reg.default "policy.store_version"

type t = {
  n : int;
  transit : Transit_policy.t array;
  compiled : Compiled.t option array;
  mutable version : int;
}

let create config =
  let n = Config.n config in
  {
    n;
    transit = Array.init n (Config.transit config);
    compiled = Array.make n None;
    version = 0;
  }

(* One-slot memo keyed by physical equality on the Config.t: every
   consumer handed the same configuration value (runner, validator,
   chaos baseline + faulted pair, campaign exec) shares one store and
   therefore one compilation of each AD's terms. Policies are
   immutable through this path — mutation goes through a private
   [create] store (see ORWG overrides). *)
let memo : (Config.t * t) option ref = ref None

let of_config config =
  match !memo with
  | Some (c, s) when c == config -> s
  | _ ->
    let s = create config in
    memo := Some (config, s);
    s

let n t = t.n

let version t = t.version

let transit t ad = t.transit.(ad)

let compiled t ad =
  match t.compiled.(ad) with
  | Some c -> c
  | None ->
    Reg.inc m_compiles;
    let c = Compiled.compile ~n:t.n (t.transit.(ad)).Transit_policy.terms in
    t.compiled.(ad) <- Some c;
    c

(* Eagerly compile every AD's terms. *)
let precompile t =
  for ad = 0 to t.n - 1 do
    ignore (compiled t ad)
  done

let set_transit t ad policy =
  t.transit.(ad) <- policy;
  t.compiled.(ad) <- None;
  t.version <- t.version + 1;
  Reg.inc m_flips;
  Reg.set m_version (float_of_int t.version)

let allows t ad ctx = Compiled.allows (compiled t ad) ctx

let admitting_term t ad ctx = Compiled.admitting_term (compiled t ad) ctx
