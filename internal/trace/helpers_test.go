package trace

// validate and writeDir are tracetest.Validate and tracetest.WriteDir for
// this package's own tests, which cannot import tracetest.

func validate(t *MemTrace) []Violation {
	v := NewValidator()
	t.Replay(v)
	return v.Finish()
}

func writeDir(t *MemTrace, dir string) error {
	s, err := NewDirSink(dir, t.Meta)
	if err != nil {
		return err
	}
	t.Replay(s)
	return s.Close()
}
