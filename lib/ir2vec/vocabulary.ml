(* IR2Vec-style seed vocabulary.

   IR2Vec learns a seed embedding for each fundamental IR entity — opcode,
   type, operand kind — and composes higher-level representations from
   them. Without the authors' trained vocabulary we use deterministic
   pseudo-random seed vectors (unit-scaled Gaussian, seeded by the entity
   name), which preserves the properties the downstream model relies on:
   fixed dimensionality, distinct directions per entity, and stability
   across runs. *)

open Posetrl_support

let dimension = 300

(* FNV-1a over the entity name gives the per-entity RNG seed. *)
let hash_name (s : string) : int =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Int64.to_int (Int64.logand !h (Int64.of_int max_int))

(* The IR2Vec memos (this seed cache and the encoder's base embeddings)
   each memoize a pure function, so they are idempotent — made
   domain-local (one table per domain) so parallel evaluation never races
   a shared hashtable, and every domain still computes identical vectors.
   Their keys come from the IR, which serve reads from untrusted bytes (a
   new vector width, intrinsic name or call arity is a new key), so a
   table that reaches [max_entries] is emptied before it grows: about
   2.4 MB of vectors at most, far above the few hundred entries real
   programs use. Memoized vectors are shared: never write into one. *)
let max_entries = 1024

let memo (key : ('k, Vecf.t) Hashtbl.t Domain.DLS.key) (k : 'k)
    (compute : 'k -> Vecf.t) : Vecf.t =
  let tbl = Domain.DLS.get key in
  match Hashtbl.find_opt tbl k with
  | Some v -> v
  | None ->
    let v = compute k in
    if Hashtbl.length tbl >= max_entries then Hashtbl.reset tbl;
    Hashtbl.replace tbl k v;
    v

let cache_key : (string, Vecf.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 128)

(* Entries in this domain's seed cache. *)
let cache_entries () = Hashtbl.length (Domain.DLS.get cache_key)

let seed_vector (entity : string) : Vecf.t =
  let rng = Rng.create (hash_name entity) in
  let scale = 1.0 /. sqrt (float_of_int dimension) in
  Vecf.init dimension (fun _ -> Rng.normal rng *. scale)

let embedding (entity : string) : Vecf.t = memo cache_key entity seed_vector

(* entity name spaces *)
let opcode name = embedding ("opcode:" ^ name)
let ty name = embedding ("type:" ^ name)
let operand_kind name = embedding ("arg:" ^ name)
