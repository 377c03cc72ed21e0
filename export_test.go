package qof

// CorpusFiles returns the files of c, in corpus order.
func CorpusFiles(c *Corpus) []*File { return c.files }
