(** Int-keyed buckets of values, most recently added first.

    The member index under CAN and Pastry prefixes, the per-host entry
    lists of the ring and Pastry soft-state maps and the pub/sub
    subscription lists are all this one structure.  A key is present only
    while its bucket is non-empty. *)

type 'a t

val create : int -> 'a t
(** Empty index; the size is the initial [Hashtbl] size. *)

val add : 'a t -> int -> 'a -> unit
(** Prepend a value to the key's bucket.  O(1). *)

val remove : 'a t -> int -> ('a -> bool) -> unit
(** [remove t key p] drops the bucket's values satisfying [p], keeping
    the others in order, and the key itself once its bucket is empty.
    O(bucket length). *)

val find : 'a t -> int -> 'a list
(** The key's bucket, newest first; [[]] for an absent key. *)

val reset : 'a t -> unit
(** Drop every key (and shrink back to the initial size). *)
