package main

import (
	"fmt"
	"strings"

	"gpuvar/internal/loadgen"
	"gpuvar/internal/traffic"
)

// mintTable prints a fresh oracle table computed by the current code:
// run it only after a change that is meant to alter the bytes, and
// review the diff of the table like a golden-file update.
//
//	perfbench -mint catalog > oracles/catalog.txt   # ~7 min
//	perfbench -mint hot     > oracles/hot.txt
//	perfbench -mint cold    > oracles/cold.txt      # ~2 min
func mintTable(which string) error {
	switch which {
	case "catalog":
		fmt.Println("# fleet seed, sha256 of `figures -full -seed S`")
		for s := uint64(0); s < catalogSeeds; s++ {
			rep, _, err := runCatalogChild(s, false, "mint")
			if err != nil {
				return err
			}
			fmt.Println(s, rep.SHA256)
		}
		return nil
	case "hot":
		seq, err := hotSequence(2022, nil)
		if err != nil {
			return err
		}
		fmt.Println("# traffic fingerprint, sha256 of the response")
		return mintOps(distinct(seq), func(o op, sum string) {
			fmt.Println(traffic.Fingerprint(o.Method, o.Path, o.Body), sum)
		})
	case "cold":
		p := newColdPool()
		var ops []op
		for _, e := range p.entries() {
			ops = append(ops, e.as(e.kind))
		}
		fmt.Println("# pool " + p.digest())
		fmt.Println("# one line per pool entry: the first 32 hex digits of the response's sha256")
		return mintOps(ops, func(_ op, sum string) { fmt.Println(sum[:32]) })
	}
	return fmt.Errorf("unknown table %q (catalog, hot or cold)", which)
}

// mintOps sends each request once, in order, to a fresh server and
// hands its response hash to emit.
func mintOps(ops []op, emit func(op, string)) error {
	rs, err := bootReplicas(1)
	if err != nil {
		return err
	}
	defer rs.close()
	c := newClients()[0]
	defer closeClients([]*loadgen.Client{c})
	for _, o := range ops {
		status, body, _, err := c.Raw(rs.bases[0], o.Method, o.Path, o.Body, "")
		if err != nil {
			return err
		}
		if status != 200 {
			return fmt.Errorf("%s %s %s: status %d: %s", o.Method, o.Path, o.Body, status, strings.TrimSpace(string(body)))
		}
		emit(o, sha256Hex(body))
	}
	return nil
}
