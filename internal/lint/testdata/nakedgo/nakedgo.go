// Package nakedgo exercises the nakedgo analyzer: raw go statements outside
// internal/parallel. The test harness also reloads this fixture under the
// internal/parallel package path to check the exemption.
package nakedgo

import "sync"

func spawn(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() { // want "naked go statement"
		defer wg.Done()
	}()
}

func spawnNamed(wg *sync.WaitGroup, work func()) {
	wg.Add(1)
	go run(wg, work) // want "naked go statement"
}

func run(wg *sync.WaitGroup, work func()) {
	defer wg.Done()
	work()
}

func spawnSuppressed(wg *sync.WaitGroup, work func()) {
	wg.Add(1)
	//ovslint:ignore nakedgo fixture demonstrating an audited suppression
	go run(wg, work)
}

// Mirrors a tempting "optimization": warming packed GEMM panels on a raw
// goroutine. Any such fan-out must go through internal/parallel so
// worker count and splice order stay deterministic.
func warmPacks(wg *sync.WaitGroup, panels []func()) {
	for _, pack := range panels {
		wg.Add(1)
		go func(p func()) { // want "naked go statement"
			defer wg.Done()
			p()
		}(pack)
	}
}
