// Command accrun compiles and runs a single OpenACC source file on the
// simulated accelerator.
//
//	accrun vecadd.c
//	accrun -compiler caps -version 3.0.8 test.f90
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"accv"
)

func main() {
	var (
		compilerName = flag.String("compiler", "reference", "compiler: caps, pgi, cray, reference")
		version      = flag.String("version", "", "compiler version")
		lang         = flag.String("lang", "", "source language (c or fortran; default: by file extension)")
		seed         = flag.Int64("seed", 1, "scheduler seed")
		timeout      = flag.Duration("timeout", 10*time.Second, "wall-clock limit")
		env          = flag.String("env", "", "ACC_* environment, e.g. ACC_DEVICE_TYPE=host,ACC_DEVICE_NUM=1")
		cycles       = flag.Bool("cycles", false, "print simulated device cycles")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: accrun [flags] <source-file>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}

	l := accv.C
	switch {
	case *lang == "fortran" || *lang == "f":
		l = accv.Fortran
	case *lang == "c":
		l = accv.C
	case *lang == "":
		if strings.HasSuffix(path, ".f") || strings.HasSuffix(path, ".f90") || strings.HasSuffix(path, ".F90") {
			l = accv.Fortran
		}
	default:
		fatal(fmt.Errorf("unknown language %q", *lang))
	}

	ver := *version
	if ver == "" {
		if vs := accv.Versions(*compilerName); len(vs) > 0 {
			ver = vs[len(vs)-1]
		}
	}
	tc, err := accv.NewCompiler(*compilerName, ver)
	if err != nil {
		fatal(err)
	}

	opts := []accv.Option{accv.WithSeed(*seed), accv.WithTimeout(*timeout)}
	for _, kv := range strings.Split(*env, ",") {
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			fatal(fmt.Errorf("bad -env entry %q", kv))
		}
		opts = append(opts, accv.WithEnv(k, v))
	}

	res, err := accv.CompileAndRun(string(src), l, tc, opts...)
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.Output)
	if res.Err != nil {
		fmt.Fprintln(os.Stderr, "accrun: runtime failure:", res.Err)
		os.Exit(1)
	}
	if *cycles {
		fmt.Fprintf(os.Stderr, "accrun: simulated device cycles: %d\n", res.SimCycles)
	}
	fmt.Fprintf(os.Stderr, "accrun: program returned %d\n", res.Exit)
	if res.Exit != 1 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "accrun:", err)
	os.Exit(2)
}
