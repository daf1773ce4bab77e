package main

import (
	"bufio"
	"embed"
	"fmt"
	"strconv"
	"strings"
)

// The pinned oracle tables. Regenerate them with the -mint flag after an
// intended change of the served or rendered bytes (see README.md).
//
//go:embed oracles/*.txt
var oracleFiles embed.FS

// catalogSeeds is how many fleet seeds have a pinned catalog hash. A
// -full catalog takes ~12 s to mint, so workload seeds fold into
// [0, catalogSeeds) instead of each needing its own.
const catalogSeeds = 32

// tableLines returns the non-comment lines of an oracle table, split
// into fields, plus its comment lines.
func tableLines(name string) (rows [][]string, comments []string, err error) {
	data, err := oracleFiles.ReadFile("oracles/" + name)
	if err != nil {
		return nil, nil, err
	}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case strings.HasPrefix(line, "#"):
			comments = append(comments, line)
		default:
			rows = append(rows, strings.Fields(line))
		}
	}
	return rows, comments, sc.Err()
}

// catalogOracle returns the pinned sha256 of `cmd/figures -full -seed S`.
func catalogOracle(fleetSeed uint64) (string, error) {
	rows, _, err := tableLines("catalog.txt")
	if err != nil {
		return "", err
	}
	for _, r := range rows {
		if len(r) == 2 && r[0] == strconv.FormatUint(fleetSeed, 10) {
			return r[1], nil
		}
	}
	return "", fmt.Errorf("catalog: no pinned hash for fleet seed %d", fleetSeed)
}

// hotOracles maps a request fingerprint (traffic.Fingerprint) to the
// sha256 of its response.
func hotOracles() (map[string]string, error) {
	rows, _, err := tableLines("hot.txt")
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, r := range rows {
		if len(r) != 2 {
			return nil, fmt.Errorf("hot.txt: malformed row %q", strings.Join(r, " "))
		}
		out[r[0]] = r[1]
	}
	return out, nil
}

// loadColdPool builds the cold pool and attaches its pinned hashes,
// refusing a table minted for a different pool.
func loadColdPool() (*coldPool, error) {
	p := newColdPool()
	rows, comments, err := tableLines("cold.txt")
	if err != nil {
		return nil, err
	}
	want := "# pool " + p.digest()
	if len(comments) == 0 || comments[0] != want {
		return nil, fmt.Errorf("cold.txt was minted for another pool (want header %q)", want)
	}
	entries := p.entries()
	if len(rows) != len(entries) {
		return nil, fmt.Errorf("cold.txt has %d hashes for %d pool entries", len(rows), len(entries))
	}
	for i, e := range entries {
		e.oracle = rows[i][0]
	}
	return p, nil
}

// matches reports whether an observed hex sha256 satisfies an oracle:
// the full hash, or a prefix of at least 32 hex digits (128 bits).
func matches(observed, oracle string) bool {
	return len(oracle) >= 32 && strings.HasPrefix(observed, oracle)
}
