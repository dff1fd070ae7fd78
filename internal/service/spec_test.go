package service

import (
	"reflect"
	"strings"
	"testing"

	"equinox"
)

// TestKeyCanonicalization: a defaulted spec and its fully spelled-out
// equivalent — including permuted scheme/benchmark lists and duplicates —
// must content-address identically.
func TestKeyCanonicalization(t *testing.T) {
	defaulted := JobSpec{}
	explicit := JobSpec{
		Width: 8, Height: 8, NumCBs: 8,
		Schemes: []string{
			"EquiNox", "SingleBase", "MultiPort", "VC-Mono", "DA2Mesh",
			"Interposer-CMesh", "SeparateBase",
		},
		Benchmarks: equinox.Benchmarks(),
	}
	k1, err := defaulted.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := explicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("defaulted %s != explicit %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Errorf("key %q is not a hex SHA-256", k1)
	}

	permuted := JobSpec{
		Benchmarks: []string{"kmeans", "bfs", "kmeans"},
		Schemes:    []string{"SeparateBase", "EquiNox", "SeparateBase"},
	}
	straight := JobSpec{
		Benchmarks: []string{"bfs", "kmeans"},
		Schemes:    []string{"EquiNox", "SeparateBase"},
	}
	kp, err := permuted.Key()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := straight.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kp != ks {
		t.Errorf("permuted %s != straight %s", kp, ks)
	}
	if kp == k1 {
		t.Error("subset sweep collides with the full sweep")
	}

	seeded := JobSpec{Seed: 2, Benchmarks: []string{"bfs", "kmeans"}, Schemes: []string{"EquiNox", "SeparateBase"}}
	kd, err := seeded.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kd == ks {
		t.Error("different seeds share a key")
	}
}

// TestCanonicalizeRuns checks the run count of a canonicalized spec.
func TestCanonicalizeRuns(t *testing.T) {
	c, err := JobSpec{Schemes: []string{"SingleBase"}, Benchmarks: []string{"kmeans", "bfs"}}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Runs(); got != 2 {
		t.Errorf("Runs() = %d, want 2", got)
	}
	full, err := JobSpec{}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if got := full.Runs(); got != 7*29 {
		t.Errorf("default Runs() = %d, want %d", got, 7*29)
	}
}

// TestSpecValidation: descriptive rejections for the inputs the HTTP layer
// must turn into 400s.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"unknown scheme", JobSpec{Schemes: []string{"WarpSpeed"}}, "unknown scheme"},
		{"unknown benchmark", JobSpec{Benchmarks: []string{"doom"}}, "unknown benchmark"},
		{"negative width", JobSpec{Width: -4, Height: 8, NumCBs: 4}, "negative mesh"},
		{"too many CBs", JobSpec{Width: 4, Height: 4, NumCBs: 16}, "leave no PEs"},
		{"tiny mesh", JobSpec{Width: 1, Height: 1, NumCBs: 1}, "too small"},
		{"negative instructions", JobSpec{InstructionsPerPE: -1}, "InstructionsPerPE"},
		{"negative parallel", JobSpec{Parallel: -1}, "negative parallel"},
		{"wide mesh", JobSpec{Width: 33, Height: 8, NumCBs: 8}, "exceeds the 32x32 maximum"},
		{"tall mesh", JobSpec{Width: 8, Height: 33, NumCBs: 8}, "exceeds the 32x32 maximum"},
		{"huge mesh", JobSpec{Width: 100000, Height: 100000, NumCBs: 8}, "exceeds the 32x32 maximum"},
		{"too many instructions", JobSpec{InstructionsPerPE: 100001}, "instructionsPerPE 100001 exceeds the 100000 maximum"},
		{"huge instructions", JobSpec{InstructionsPerPE: 1 << 40}, "exceeds the 100000 maximum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.spec.Canonicalize(); err == nil {
				t.Fatalf("Canonicalize(%+v) accepted", tc.spec)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzJobSpecCanonicalize feeds raw JSON through the handler's strict decode
// and Canonicalize. Every accepted spec must canonicalize idempotently, keep
// a stable content key, and come out with Parallel cleared; nothing may
// panic.
func FuzzJobSpecCanonicalize(f *testing.F) {
	f.Add(`{}`)
	f.Add(`{"parallel":4}`)
	f.Add(`{"parallel":-1}`)
	f.Add(`{"width":33}`)
	f.Add(`{"instructionsPerPE":100001}`)
	f.Add(`{"schemes":["SeparateBase","EquiNox","SeparateBase"],"benchmarks":["kmeans","bfs","kmeans"]}`)
	f.Fuzz(func(t *testing.T, raw string) {
		spec, err := decodeSpec(strings.NewReader(raw))
		if err != nil {
			return
		}
		canon, err := spec.Canonicalize()
		if err != nil {
			return
		}
		if canon.Parallel != 0 {
			t.Fatalf("canonical spec kept parallel=%d", canon.Parallel)
		}
		again, err := canon.Canonicalize()
		if err != nil {
			t.Fatalf("canonical spec rejected on a second pass: %v", err)
		}
		if !reflect.DeepEqual(again, canon) {
			t.Fatalf("Canonicalize is not idempotent:\n first %+v\nsecond %+v", canon, again)
		}
		k1, err := spec.Key()
		if err != nil {
			t.Fatal(err)
		}
		k2, err := canon.Key()
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Fatalf("key changed after canonicalization: %s vs %s", k1, k2)
		}
	})
}
