package qof

import (
	"context"
	"errors"

	"qof/internal/engine"
)

// CorpusFiles returns the files of c, in corpus order.
func CorpusFiles(c *Corpus) []*File { return c.files }

// FileEngine returns the engine that answers f's queries.
func FileEngine(f *File) *engine.Engine { return f.eng }

// CorpusRun runs src on every file of c as ExecuteContext does, and returns
// each file's engine result in corpus order.
func CorpusRun(c *Corpus, src string) ([]*engine.Result, error) {
	p, err := c.schema.cat.Prepare(src)
	if err != nil {
		return nil, err
	}
	results, errs := c.run(context.Background(), p, queryConfig{})
	return results, errors.Join(errs...)
}
