package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/server"
)

// runRemoteScript executes commands against a live hfadd server instead
// of a throwaway in-memory volume. Remote commands are object-centric
// (the wire API speaks OIDs, not paths): `create` prints the new OID and
// later commands take it as their first argument.
func runRemoteScript(addr string, cmds [][]string) error {
	c := server.NewClient(addr)
	if !c.Healthy() {
		return fmt.Errorf("no hfadd server at %s", addr)
	}
	for _, cmd := range cmds {
		fmt.Printf("$ hfadctl -addr %s %s\n", addr, strings.Join(cmd, " "))
		if err := executeRemote(c, cmd); err != nil {
			return fmt.Errorf("%s: %w", cmd[0], err)
		}
		fmt.Println()
	}
	return nil
}

func remoteUsage() string {
	return `remote commands (with -addr HOST:PORT):
  create TEXT [TAG VALUE]...   create an object with contents and names
  append OID TEXT              append bytes to an object
  cat OID                      print an object's bytes
  stat OID                     show metadata
  rm OID                       delete the object and all its names
  tag OID TAG VALUE            add a name
  untag OID TAG VALUE          remove a name
  names OID                    list all names
  find TAG VALUE [TAG VALUE]   resolve a naming vector
  findn LIMIT AFTER TAG VALUE [TAG VALUE]
                               paginated find (server-side streaming)
  explain TAG VALUE [TAG VALUE]
                               print the server's executed query plan
  search TERM...               full-text conjunction
  index OID                    full-text index an object's contents
  stats                        server + store counters`
}

func executeRemote(c *server.Client, cmd []string) error {
	need := func(n int) error {
		if len(cmd) < n+1 {
			return fmt.Errorf("need %d argument(s)", n)
		}
		return nil
	}
	oidArg := func(s string) (uint64, error) {
		oid, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad OID %q", s)
		}
		return oid, nil
	}
	pairsArg := func(args []string) ([]server.TagPair, error) {
		if len(args) == 0 || len(args)%2 != 0 {
			return nil, fmt.Errorf("want TAG VALUE pairs")
		}
		pairs := make([]server.TagPair, 0, len(args)/2)
		for i := 0; i < len(args); i += 2 {
			pairs = append(pairs, server.TagPair{Tag: args[i], Value: args[i+1]})
		}
		return pairs, nil
	}
	switch cmd[0] {
	case "create":
		if err := need(1); err != nil {
			return err
		}
		tags, _ := pairsArg(cmd[2:]) // optional; empty on odd/missing args
		resp, err := c.Create(&server.CreateReq{Data: []byte(cmd[1]), Tags: tags})
		if err != nil {
			return err
		}
		fmt.Printf("oid=%d size=%d\n", resp.OID, resp.Size)
		return nil
	case "append":
		if err := need(2); err != nil {
			return err
		}
		oid, err := oidArg(cmd[1])
		if err != nil {
			return err
		}
		resp, err := c.Append(oid, []byte(strings.Join(cmd[2:], " ")))
		if err != nil {
			return err
		}
		fmt.Printf("size=%d\n", resp.Size)
		return nil
	case "cat":
		if err := need(1); err != nil {
			return err
		}
		oid, err := oidArg(cmd[1])
		if err != nil {
			return err
		}
		data, err := c.Read(oid, 0, 0)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", data)
		return nil
	case "stat":
		if err := need(1); err != nil {
			return err
		}
		oid, err := oidArg(cmd[1])
		if err != nil {
			return err
		}
		m, err := c.Stat(oid)
		if err != nil {
			return err
		}
		fmt.Printf("oid=%d size=%d mode=%o owner=%q\n", m.OID, m.Size, m.Mode, m.Owner)
		return nil
	case "rm":
		if err := need(1); err != nil {
			return err
		}
		oid, err := oidArg(cmd[1])
		if err != nil {
			return err
		}
		return c.Delete(oid)
	case "tag", "untag":
		if err := need(3); err != nil {
			return err
		}
		oid, err := oidArg(cmd[1])
		if err != nil {
			return err
		}
		if cmd[0] == "tag" {
			return c.Tag(oid, cmd[2], cmd[3])
		}
		return c.Untag(oid, cmd[2], cmd[3])
	case "names":
		if err := need(1); err != nil {
			return err
		}
		oid, err := oidArg(cmd[1])
		if err != nil {
			return err
		}
		resp, err := c.Names(oid)
		if err != nil {
			return err
		}
		for _, tv := range resp.Names {
			fmt.Printf("%-9s %s\n", tv.Tag, tv.Value)
		}
		return nil
	case "find":
		if err := need(2); err != nil {
			return err
		}
		pairs, err := pairsArg(cmd[1:])
		if err != nil {
			return err
		}
		resp, err := c.Find(&server.FindReq{Pairs: pairs})
		if err != nil {
			return err
		}
		fmt.Printf("-> %v\n", resp.OIDs)
		return nil
	case "findn":
		if err := need(4); err != nil {
			return err
		}
		limit, err := strconv.Atoi(cmd[1])
		if err != nil {
			return fmt.Errorf("bad LIMIT %q", cmd[1])
		}
		after, err := strconv.ParseUint(cmd[2], 10, 64)
		if err != nil {
			return fmt.Errorf("bad AFTER %q", cmd[2])
		}
		pairs, err := pairsArg(cmd[3:])
		if err != nil {
			return err
		}
		resp, err := c.Find(&server.FindReq{
			Pairs: pairs,
			Page:  server.PageSpec{Limit: limit, After: after},
		})
		if err != nil {
			return err
		}
		fmt.Printf("-> %v", resp.OIDs)
		if resp.More {
			fmt.Printf(" (more; next after=%d)", resp.NextAfter)
		}
		fmt.Println()
		return nil
	case "explain":
		if err := need(2); err != nil {
			return err
		}
		pairs, err := pairsArg(cmd[1:])
		if err != nil {
			return err
		}
		resp, err := c.Explain(&server.FindReq{Pairs: pairs})
		if err != nil {
			return err
		}
		for i, s := range resp.Steps {
			role := "drives"
			if i > 0 {
				role = "seeked"
			}
			if s.Negated {
				role = "subtracted"
			}
			fmt.Printf("%d. %-30s est=%-6d seeks=%-4d emitted=%-4d %s\n",
				i+1, s.Rendered, s.Estimate, s.Seeks, s.Steps, role)
		}
		fmt.Printf("-> %v\n", resp.OIDs)
		return nil
	case "search":
		if err := need(1); err != nil {
			return err
		}
		resp, err := c.Search(cmd[1:], server.PageSpec{})
		if err != nil {
			return err
		}
		fmt.Printf("-> %v\n", resp.OIDs)
		return nil
	case "index":
		if err := need(1); err != nil {
			return err
		}
		oid, err := oidArg(cmd[1])
		if err != nil {
			return err
		}
		_, err = c.Batch(&server.BatchReq{Items: []server.BatchItem{{Index: &oid}}})
		return err
	case "stats":
		m, err := c.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("objects=%d creates=%d reads=%d writes=%d\n",
			m.Objects.Objects, m.Objects.Creates, m.Objects.Reads, m.Objects.Writes)
		fmt.Printf("server: admitted=%d rejected=%d\n", m.Admitted, m.RejectedInflight)
		if w := m.WAL; w != nil {
			fmt.Printf("wal: commits=%d groups=%d syncs=%d (avg group %.1f)\n",
				w.Commits, w.Groups, w.Syncs, w.AvgGroup)
		}
		fmt.Printf("cache: hit rate %.3f (%d hits / %d misses)\n",
			m.Cache.HitRate, m.Cache.Hits, m.Cache.Misses)
		return nil
	default:
		return fmt.Errorf("unknown remote command %q", cmd[0])
	}
}
