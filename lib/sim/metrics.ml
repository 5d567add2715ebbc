module Reg = Pr_telemetry.Registry

type t = {
  n : int;
  msgs : int array;
  bytes_sent : int array;
  comps : int array;
  lost : int array;
  (* The process totals in {!Reg.default}, resolved once here. *)
  m_sends : Reg.counter;
  m_losses : Reg.counter;
}

let create ~n =
  {
    n;
    msgs = Array.make n 0;
    bytes_sent = Array.make n 0;
    comps = Array.make n 0;
    lost = Array.make n 0;
    m_sends = Reg.counter Reg.default "net.sends";
    m_losses = Reg.counter Reg.default "net.losses";
  }

let record_sends t ad ~copies ~bytes =
  t.msgs.(ad) <- t.msgs.(ad) + copies;
  t.bytes_sent.(ad) <- t.bytes_sent.(ad) + (copies * bytes);
  Reg.add t.m_sends copies

let record_loss t ad =
  t.lost.(ad) <- t.lost.(ad) + 1;
  Reg.inc t.m_losses

let record_computation t ad ?(work = 1) () = t.comps.(ad) <- t.comps.(ad) + work

let sum a = Array.fold_left ( + ) 0 a

let messages t = sum t.msgs

let bytes t = sum t.bytes_sent

let computations t = sum t.comps

let msgs_lost t = sum t.lost

let messages_of t ad = t.msgs.(ad)

let computations_of t ad = t.comps.(ad)

let to_json t =
  let ints a = Pr_util.Json.List (Array.to_list (Array.map (fun i -> Pr_util.Json.Int i) a)) in
  Pr_util.Json.Obj
    [
      ("n", Pr_util.Json.Int t.n);
      ("messages", ints t.msgs);
      ("bytes", ints t.bytes_sent);
      ("computations", ints t.comps);
      ("losses", ints t.lost);
    ]

let load_series t =
  let floats a = Array.map float_of_int a in
  [
    ("messages", floats t.msgs);
    ("bytes", floats t.bytes_sent);
    ("computations", floats t.comps);
  ]
