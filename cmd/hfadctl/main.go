// Command hfadctl is the interactive face of the reproduction: it creates
// an hFAD volume image in a regular file-backed memory device, populates
// it, and exercises the naming and access APIs from the shell.
//
// Because the simulated device lives in memory, hfadctl runs a scripted
// session: a sequence of commands separated by "--" executed against one
// volume, e.g.
//
//	hfadctl demo
//	hfadctl run \
//	    mkdir /docs -- write /docs/a.txt "hello world" -- \
//	    tag /docs/a.txt UDEF important -- find UDEF important -- \
//	    search hello -- ls /docs -- stat /docs/a.txt -- fsck
//
// With -addr the same scripted session runs against a live hfadd server
// instead, using the object-centric wire API:
//
//	hfadctl -addr localhost:8080 run \
//	    create "hello world" UDEF important -- find UDEF important -- stats
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/hfad"
)

func main() {
	args := os.Args[1:]
	addr := ""
	if len(args) >= 2 && args[0] == "-addr" {
		addr = args[1]
		args = args[2:]
	}
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "demo":
		if addr != "" {
			fmt.Fprintln(os.Stderr, "error: demo runs locally; use -addr with run")
			os.Exit(2)
		}
		if err := runScript(demoScript()); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	case "run":
		var cmds [][]string
		var cur []string
		for _, a := range args[1:] {
			if a == "--" {
				if len(cur) > 0 {
					cmds = append(cmds, cur)
					cur = nil
				}
				continue
			}
			cur = append(cur, a)
		}
		if len(cur) > 0 {
			cmds = append(cmds, cur)
		}
		var err error
		if addr != "" {
			err = runRemoteScript(addr, cmds)
		} else {
			err = runScript(cmds)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  hfadctl demo                 guided tour of the volume commands
  hfadctl run CMD... [-- CMD...]
  hfadctl -addr HOST:PORT run CMD... [-- CMD...]
                               run against a live hfadd server
commands:
  mkdir PATH                   create a directory (POSIX view)
  write PATH TEXT              create a file with contents
  cat PATH                     print a file
  ls PATH                      list a directory
  stat PATH                    show metadata
  ln OLD NEW                   hard link (one datum, two names)
  rm PATH                      unlink
  tag PATH TAG VALUE           add a name to the file's object
  untag PATH TAG VALUE         remove a name
  names PATH                   list all names of the file's object
  find TAG VALUE [TAG VALUE]   resolve a naming vector (conjunction)
  findn LIMIT AFTER TAG VALUE [TAG VALUE]
                               paginated find: at most LIMIT results with
                               OID > AFTER (streaming, no full evaluation)
  explain TAG VALUE [TAG VALUE]
                               run the conjunction and print the executed
                               plan: iterator order, estimates, seeks
  search TERM...               full-text conjunction over indexed files
  index PATH                   full-text index a file's contents
  insert PATH OFF TEXT         insert bytes mid-file (native API)
  cut PATH OFF LEN             truncate-range mid-file (native API)
  fsck                         run the volume checker
  stats                        volume statistics`)
	fmt.Fprintln(os.Stderr, remoteUsage())
}

func demoScript() [][]string {
	return [][]string{
		{"mkdir", "/photos"},
		{"write", "/photos/beach.jpg", "sandy beach with margo and nick"},
		{"write", "/photos/lab.jpg", "margo debugging the buddy allocator"},
		{"tag", "/photos/beach.jpg", "UDEF", "person:margo"},
		{"tag", "/photos/beach.jpg", "UDEF", "place:beach"},
		{"tag", "/photos/lab.jpg", "UDEF", "person:margo"},
		{"index", "/photos/beach.jpg"},
		{"index", "/photos/lab.jpg"},
		{"find", "UDEF", "person:margo"},
		{"find", "UDEF", "person:margo", "UDEF", "place:beach"},
		{"search", "buddy", "allocator"},
		{"ln", "/photos/beach.jpg", "/photos/favorite.jpg"},
		{"names", "/photos/beach.jpg"},
		{"insert", "/photos/lab.jpg", "6", "happily "},
		{"cat", "/photos/lab.jpg"},
		{"cut", "/photos/lab.jpg", "6", "8"},
		{"cat", "/photos/lab.jpg"},
		{"ls", "/photos"},
		{"stat", "/photos/beach.jpg"},
		{"fsck"},
		{"stats"},
	}
}

func runScript(cmds [][]string) error {
	st, err := hfad.Create(hfad.NewMemDevice(1<<15), hfad.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	for _, cmd := range cmds {
		fmt.Printf("$ hfadctl %s\n", strings.Join(cmd, " "))
		if err := execute(st, cmd); err != nil {
			return fmt.Errorf("%s: %w", cmd[0], err)
		}
		fmt.Println()
	}
	return nil
}

func execute(st *hfad.Store, cmd []string) error {
	pfs, err := st.POSIX()
	if err != nil {
		return err
	}
	need := func(n int) error {
		if len(cmd) < n+1 {
			return fmt.Errorf("need %d argument(s)", n)
		}
		return nil
	}
	oidOf := func(path string) (hfad.OID, error) {
		m, err := pfs.Stat(path)
		if err != nil {
			return 0, err
		}
		return m.OID, nil
	}
	switch cmd[0] {
	case "mkdir":
		if err := need(1); err != nil {
			return err
		}
		return pfs.MkdirAll(cmd[1], 0o755)
	case "write":
		if err := need(2); err != nil {
			return err
		}
		return pfs.WriteFile(cmd[1], []byte(strings.Join(cmd[2:], " ")), 0o644)
	case "cat":
		if err := need(1); err != nil {
			return err
		}
		data, err := pfs.ReadFile(cmd[1])
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", data)
		return nil
	case "ls":
		if err := need(1); err != nil {
			return err
		}
		entries, err := pfs.ReadDir(cmd[1])
		if err != nil {
			return err
		}
		for _, e := range entries {
			kind := "-"
			if e.Meta.Mode&0o40000 != 0 {
				kind = "d"
			}
			fmt.Printf("%s %8d oid=%-4d %s\n", kind, e.Meta.Size, e.OID, e.Name)
		}
		return nil
	case "stat":
		if err := need(1); err != nil {
			return err
		}
		m, err := pfs.Stat(cmd[1])
		if err != nil {
			return err
		}
		fmt.Printf("oid=%d size=%d mode=%o owner=%q\n", m.OID, m.Size, m.Mode, m.Owner)
		return nil
	case "ln":
		if err := need(2); err != nil {
			return err
		}
		return pfs.Link(cmd[1], cmd[2])
	case "rm":
		if err := need(1); err != nil {
			return err
		}
		return pfs.Remove(cmd[1])
	case "tag":
		if err := need(3); err != nil {
			return err
		}
		oid, err := oidOf(cmd[1])
		if err != nil {
			return err
		}
		return st.Tag(oid, cmd[2], cmd[3])
	case "untag":
		if err := need(3); err != nil {
			return err
		}
		oid, err := oidOf(cmd[1])
		if err != nil {
			return err
		}
		return st.Untag(oid, cmd[2], cmd[3])
	case "names":
		if err := need(1); err != nil {
			return err
		}
		oid, err := oidOf(cmd[1])
		if err != nil {
			return err
		}
		names, err := st.Names(oid)
		if err != nil {
			return err
		}
		for _, tv := range names {
			fmt.Printf("%-9s %s\n", tv.Tag, tv.Value)
		}
		return nil
	case "find":
		if err := need(2); err != nil {
			return err
		}
		if len(cmd[1:])%2 != 0 {
			return fmt.Errorf("find wants TAG VALUE pairs")
		}
		var pairs []hfad.TagValue
		for i := 1; i < len(cmd); i += 2 {
			pairs = append(pairs, hfad.TV(cmd[i], cmd[i+1]))
		}
		ids, err := st.Find(pairs...)
		if err != nil {
			return err
		}
		fmt.Printf("-> %v\n", ids)
		return nil
	case "findn":
		if err := need(4); err != nil {
			return err
		}
		var limit int
		var after uint64
		if _, err := fmt.Sscanf(cmd[1], "%d", &limit); err != nil {
			return fmt.Errorf("bad LIMIT %q: %w", cmd[1], err)
		}
		if _, err := fmt.Sscanf(cmd[2], "%d", &after); err != nil {
			return fmt.Errorf("bad AFTER %q: %w", cmd[2], err)
		}
		if len(cmd[3:])%2 != 0 {
			return fmt.Errorf("findn wants TAG VALUE pairs")
		}
		var pairs []hfad.TagValue
		for i := 3; i < len(cmd); i += 2 {
			pairs = append(pairs, hfad.TV(cmd[i], cmd[i+1]))
		}
		ids, err := st.FindPage(hfad.Page{Limit: limit, After: hfad.OID(after)}, pairs...)
		if err != nil {
			return err
		}
		fmt.Printf("-> %v\n", ids)
		return nil
	case "explain":
		if err := need(2); err != nil {
			return err
		}
		if len(cmd[1:])%2 != 0 {
			return fmt.Errorf("explain wants TAG VALUE pairs")
		}
		var kids []hfad.Query
		for i := 1; i < len(cmd); i += 2 {
			kids = append(kids, hfad.Term{Tag: cmd[i], Value: []byte(cmd[i+1])})
		}
		ids, steps, err := st.Profile(hfad.And{Kids: kids}, hfad.Page{})
		if err != nil {
			return err
		}
		for i, s := range steps {
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
		fmt.Printf("-> %v\n", ids)
		return nil
	case "search":
		if err := need(1); err != nil {
			return err
		}
		var pairs []hfad.TagValue
		for _, term := range cmd[1:] {
			pairs = append(pairs, hfad.TV(hfad.TagFulltext, term))
		}
		ids, err := st.Find(pairs...)
		if err != nil {
			return err
		}
		fmt.Printf("-> %v\n", ids)
		return nil
	case "index":
		if err := need(1); err != nil {
			return err
		}
		oid, err := oidOf(cmd[1])
		if err != nil {
			return err
		}
		return st.IndexContent(oid)
	case "insert":
		if err := need(3); err != nil {
			return err
		}
		f, err := pfs.OpenRW(cmd[1])
		if err != nil {
			return err
		}
		defer f.Close()
		var off uint64
		if _, err := fmt.Sscanf(cmd[2], "%d", &off); err != nil {
			return err
		}
		return f.Insert(off, []byte(strings.Join(cmd[3:], " ")))
	case "cut":
		if err := need(3); err != nil {
			return err
		}
		f, err := pfs.OpenRW(cmd[1])
		if err != nil {
			return err
		}
		defer f.Close()
		var off, n uint64
		if _, err := fmt.Sscanf(cmd[2], "%d", &off); err != nil {
			return err
		}
		if _, err := fmt.Sscanf(cmd[3], "%d", &n); err != nil {
			return err
		}
		return f.TruncateRange(off, n)
	case "fsck":
		rep, err := st.Check()
		if err != nil {
			return err
		}
		if rep.Ok() {
			fmt.Printf("clean: %d objects, %d extents (%d holes) on %d extent pages below their rows, %d metadata pages, %d used / %d free sectors\n",
				rep.Objects, rep.Extents, rep.Holes, rep.ExtentPages, rep.MetadataPages, rep.UsedSectors, rep.FreeSectors)
			return nil
		}
		for _, p := range rep.Problems {
			fmt.Println("PROBLEM:", p)
		}
		return fmt.Errorf("%d problem(s)", len(rep.Problems))
	case "stats":
		o := st.Volume().OSD.Stats()
		a := st.Volume().Allocator().Stats()
		fmt.Printf("objects=%d creates=%d writes=%d inserts=%d\n", o.Objects, o.Creates, o.Writes, o.Inserts)
		fmt.Printf("blocks: used=%d free=%d fragmentation=%.3f\n", a.UsedBlocks, a.FreeBlocks, a.Fragmentation())
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd[0])
	}
}
