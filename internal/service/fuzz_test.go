package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

// FuzzJobSpec decodes arbitrary submission bodies the way POST /v1/jobs
// does (the size cap, unknown fields rejected). A decoded spec must
// resolve its options without panicking, and a spec small enough to
// generate (1–128 genes) must keep its cache key through a re-encode and
// decode.
func FuzzJobSpec(f *testing.F) {
	seed, err := json.Marshal(testSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"cohort":{"code":"ACC","genes":20,"hits":3,"seed":7},` +
		`"options":{"alpha":0.25,"scheme":"2x1","scheduler":"ed","engine":"sparse","kernelize":true,"max_iterations":3}}`))
	f.Add([]byte(`{"cohort":{"code":"LGG","genes":-4,"hits":9},"options":{"workers":-1,"max_iterations":-2}}`))
	f.Add([]byte(`{"cohort":{"code":"BRCA","genes":12,"hits":4,"seed":-9223372036854775808},"options":{"alpha":1e308}}`))
	f.Add([]byte(`{"cohort":{"code":"BRCA"},"unknown":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeJobSpec(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(data)), maxRequestBytes))
		if err != nil {
			return
		}
		key, ok := fuzzKey(spec)
		if !ok {
			return
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", spec, err)
		}
		back, err := decodeJobSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("decoding re-encoded %s: %v", enc, err)
		}
		backKey, ok := fuzzKey(back)
		if !ok || backKey != key {
			t.Fatalf("cache key %+v became %+v (ok=%v) through %s", key, backKey, ok, enc)
		}
	})
}

// fuzzKey resolves a spec's options as buildJob does and, when its cohort
// is small enough to generate, returns its cache key. ok is false when
// the spec is rejected or too large.
func fuzzKey(spec JobSpec) (key CacheKey, ok bool) {
	opt, err := spec.Options.CoverOptions(spec.Cohort.Hits)
	if err != nil {
		return key, false
	}
	if opt, err = opt.Normalized(); err != nil {
		return key, false
	}
	if spec.Cohort.Genes < 1 || spec.Cohort.Genes > 128 {
		return key, false
	}
	cohort, err := spec.Cohort.Generate()
	if err != nil {
		return key, false
	}
	return CanonicalKey(cohort.Tumor, cohort.Normal, opt), true
}
