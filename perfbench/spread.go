package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// spread prints, per workload and metric, the median of several result
// files and the distance between their first and third quartiles as a share
// of that median. It refuses files from different hosts. It returns the
// process exit code.
func spread(paths []string) int {
	type key struct{ workload, metric string }
	vals := map[key]Samples{}
	var keys []key
	var fp *fingerprint
	for _, p := range paths {
		var r resultFile
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &r)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p, err)
			return 1
		}
		if fp == nil {
			fp = &r.Fingerprint
		} else if *fp != r.Fingerprint {
			fmt.Fprintf(os.Stderr, "perfbench: refusing to mix results from different hosts (%s)\n", p)
			return 1
		}
		for n, m := range r.Metrics {
			k := key{r.Workload, n}
			if _, ok := vals[k]; !ok {
				keys = append(keys, k)
			}
			vals[k] = append(vals[k], m.Value)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Printf("%-11s %-36s %4s %14s %8s\n", "workload", "metric", "runs", "median", "spread")
	for _, k := range keys {
		s := vals[k]
		med := s.Median()
		q1, q3 := s.Quartiles()
		fmt.Printf("%-11s %-36s %4d %14.6g %8.3f\n", k.workload, k.metric, s.N(), med, share(q3-q1, med))
	}
	return 0
}
