package netdimm

// Test-only seams: the public API intentionally does not expose the trace
// writer (cmd/netdimm-trace owns file creation), but API tests need to
// produce a valid stream.

import (
	"io"
	"testing"

	"netdimm/internal/trace"
	"netdimm/internal/workload"
)

func writeTraceForTest(w io.Writer, c ClusterName, seed uint64, n int) error {
	cl, err := workload.ParseCluster(string(c))
	if err != nil {
		return err
	}
	events := workload.NewGenerator(cl, 0, seed).Generate(n)
	return trace.Write(w, trace.Header{
		Cluster: cl,
		Seed:    seed,
		Count:   uint32(n),
	}, events)
}

// must unwraps a (value, error) pair, failing tb on the error.
func must[T any](tb testing.TB) func(T, error) T {
	return func(v T, err error) T {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		return v
	}
}

// Table 1 machines for the API tests.
func testDNIC(tb testing.TB, zeroCopy bool) *Machine {
	return must[*Machine](tb)(NewDNICWithConfig(DefaultConfig(), zeroCopy))
}

func testINIC(tb testing.TB, zeroCopy bool) *Machine {
	return must[*Machine](tb)(NewINICWithConfig(DefaultConfig(), zeroCopy))
}

func testNetDIMM(tb testing.TB, seed uint64) *Machine {
	return must[*Machine](tb)(NewNetDIMMWithConfig(DefaultConfig(), seed))
}
