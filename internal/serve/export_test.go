package serve

import "reflect"

// ShardEngines reports, for every shard of the published generation, the
// engine behind each file its view holds, keyed by file name. An engine is
// reported by its address, which identifies it and is good for nothing
// else: the facade keeps engines unexported, so they are read by
// reflection. A view lists its files in name order, as onShard does.
func ShardEngines(s *Server) []map[string]uintptr {
	set := s.set.Load()
	out := make([]map[string]uintptr, len(set.shards))
	for i, view := range set.shards {
		names := set.onShard[i]
		engines := reflect.ValueOf(view).Elem().FieldByName("c").Elem().FieldByName("engines")
		if engines.Len() != len(names) {
			panic("serve: a shard view does not hold exactly the files placed on it")
		}
		out[i] = make(map[string]uintptr, len(names))
		for j, name := range names {
			out[i][name] = engines.Index(j).Pointer()
		}
	}
	return out
}
