module T = Pr_util.Texttable

type t = {
  window : float;
  series : string array;
  probe : unit -> float array;
  trace : Trace.t;
  mutable next : float;
  mutable samples : (float * float array) list; (* newest first *)
  last : float array;
  first_nonzero : float option array;
  last_change : float array;
}

let sample t ~now =
  let v = t.probe () in
  let n = Array.length t.series in
  for i = 0 to n - 1 do
    let x = if i < Array.length v then v.(i) else 0.0 in
    if x <> t.last.(i) then begin
      t.last_change.(i) <- now;
      if t.first_nonzero.(i) = None && x <> 0.0 then t.first_nonzero.(i) <- Some now;
      if Trace.enabled t.trace then
        Trace.counter t.trace ~ts:now ~tid:0 ~value:x t.series.(i);
      t.last.(i) <- x
    end
  done;
  t.samples <- (now, Array.sub t.last 0 n) :: t.samples

let create ?(window = 1.0) ~series ~probe trace =
  let n = List.length series in
  let t =
    {
      window = Stdlib.max window epsilon_float;
      series = Array.of_list series;
      probe;
      trace;
      next = 0.0;
      samples = [];
      last = Array.make n 0.0;
      first_nonzero = Array.make n None;
      last_change = Array.make n 0.0;
    }
  in
  sample t ~now:0.0;
  t.next <- t.window;
  t

(* Called from the engine's per-event observer: cheap window-boundary
   test, at most one probe per crossed window. *)
let observe t ~now =
  if now >= t.next then begin
    sample t ~now;
    t.next <- (Float.of_int (int_of_float (now /. t.window)) +. 1.0) *. t.window
  end

let finish t ~now = sample t ~now

let samples t = List.rev t.samples

let index_of t name =
  let rec go i = if i >= Array.length t.series then None else if t.series.(i) = name then Some i else go (i + 1) in
  go 0

let first_nonzero t name = Option.bind (index_of t name) (fun i -> t.first_nonzero.(i))

let final t name = Option.map (fun i -> t.last.(i)) (index_of t name)

(* Quiescence = the last simulated time any observed series moved. *)
let quiescence t = Array.fold_left Stdlib.max 0.0 t.last_change

let table t =
  let tbl =
    T.create
      ~columns:
        [
          ("series", T.Left);
          ("first-activity", T.Right);
          ("last-change", T.Right);
          ("final", T.Right);
        ]
  in
  Array.iteri
    (fun i name ->
      T.add_row tbl
        [
          name;
          (match t.first_nonzero.(i) with
          | Some ts -> T.cell_float ~decimals:2 ts
          | None -> "-");
          T.cell_float ~decimals:2 t.last_change.(i);
          T.cell_float ~decimals:0 t.last.(i);
        ])
    t.series;
  tbl
